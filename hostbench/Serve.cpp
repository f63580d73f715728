//===- hostbench/Serve.cpp ------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include "Trace.h"

#include "runtime/Channel.h"
#include "runtime/VProc.h"

#include <algorithm>
#include <memory>
#include <thread>

using namespace hostbench;
using namespace manti;

namespace {

struct ServeState {
  Service *Svc = nullptr;
  const std::vector<std::vector<Request>> *Schedules = nullptr;
  std::vector<std::unique_ptr<Channel>> Chans;
  /// Completions per (generator, index); each must end at exactly 1.
  std::vector<std::vector<uint8_t>> Done;
  uint64_t EpochNanos = 0;
  uint64_t SloNanos = 0;

  struct PerWorker {
    LatencyRecorder Latency, Queue, Service;
    std::vector<uint64_t> Samples; ///< raw latencies, for the exact median
    OpTally Ops;
    uint64_t Failed = 0, WithinSlo = 0, LastDone = 0;
  };
  std::vector<PerWorker> Workers;
  std::vector<LatencyRecorder> GenLate;
  JoinCounter Join;

  uint64_t elapsed() const { return nowNanos() - EpochNanos; }
};

/// Requests cross the channel as (generator << 32) | index; -1 poisons.
constexpr int64_t Poison = -1;

void workerTask(Runtime &, VProc &VP, Task T) {
  auto *St = static_cast<ServeState *>(T.Ctx);
  const unsigned W = static_cast<unsigned>(T.A);
  ServeState::PerWorker &Me = St->Workers[W];
  Channel &Chan = *St->Chans[W];
  const std::size_t NumGens = St->Schedules->size();
  std::size_t Poisons = 0;
  while (Poisons < NumGens) {
    int64_t Tok;
    {
      Span S(SpanKind::ChanRecv);
      Tok = Chan.recv(VP).asInt();
    }
    if (Tok < 0) {
      Poisons++;
      continue;
    }
    const unsigned Gen = static_cast<unsigned>(Tok >> 32);
    const uint32_t Idx = static_cast<uint32_t>(Tok & 0xffffffff);
    const Request &R = (*St->Schedules)[Gen][Idx];
    uint64_t Dequeued = St->elapsed();
    bool Ok = St->Svc->execute(VP, R, Me.Ops);
    uint64_t Now = St->elapsed();
    uint64_t Lat = Now > R.ScheduledNanos ? Now - R.ScheduledNanos : 0;
    Me.Latency.record(Lat);
    Me.Samples.push_back(Lat);
    Me.Queue.record(Dequeued > R.ScheduledNanos ? Dequeued - R.ScheduledNanos
                                                : 0);
    Me.Service.record(Now - Dequeued);
    if (!Ok)
      Me.Failed++;
    else if (Lat <= St->SloNanos)
      Me.WithinSlo++;
    St->Done[Gen][Idx]++;
    if (Now > Me.LastDone)
      Me.LastDone = Now;
  }
  St->Join.sub();
}

/// Paces generator \p G's schedule (polling, so steals and global
/// collections are serviced while it waits), then poisons every worker.
void generatorBody(VProc &VP, ServeState *St, unsigned G) {
  const std::vector<Request> &Sched = (*St->Schedules)[G];
  for (uint32_t I = 0; I < Sched.size(); ++I) {
    const Request &R = Sched[I];
    uint64_t Now;
    for (;;) {
      Now = St->elapsed();
      if (Now >= R.ScheduledNanos)
        break;
      VP.poll();
      if (R.ScheduledNanos - Now > 50000)
        std::this_thread::yield();
    }
    St->GenLate[G].record(Now - R.ScheduledNanos);
    int64_t Tok = (static_cast<int64_t>(G) << 32) | I;
    Span S(SpanKind::ChanSend);
    St->Chans[St->Svc->route(R.Key)]->send(VP, Value::fromInt(Tok));
  }
  for (auto &Chan : St->Chans) {
    Span S(SpanKind::ChanSend);
    Chan->send(VP, Value::fromInt(Poison));
  }
}

void generatorTask(Runtime &, VProc &VP, Task T) {
  auto *St = static_cast<ServeState *>(T.Ctx);
  generatorBody(VP, St, static_cast<unsigned>(T.A));
  St->Join.sub();
}

void serveMain(Runtime &, VProc &VP, void *Ctx) {
  auto *St = static_cast<ServeState *>(Ctx);
  const unsigned W = static_cast<unsigned>(St->Workers.size());
  St->EpochNanos = nowNanos();
  St->Join.add(W + (W - 1));
  for (unsigned I = 0; I < W; ++I)
    VP.spawn(Task{&workerTask, St, Value::nil(), static_cast<int64_t>(I), 0,
                  St->Svc->home(I)});
  for (unsigned G = 1; G < W; ++G)
    VP.spawn(Task{&generatorTask, St, Value::nil(), static_cast<int64_t>(G),
                  0, Task::NoAffinity});
  generatorBody(VP, St, 0);
  VP.joinWait(St->Join);
}

} // namespace

PhaseResult
hostbench::serve(Runtime &RT, Service &Svc,
                 const std::vector<std::vector<Request>> &Schedules,
                 uint64_t SloNanos) {
  const unsigned W = static_cast<unsigned>(Schedules.size());
  ServeState St;
  St.Svc = &Svc;
  St.Schedules = &Schedules;
  St.SloNanos = SloNanos;
  St.Workers.resize(W);
  St.GenLate.resize(W);
  std::size_t Total = 0;
  for (unsigned I = 0; I < W; ++I) {
    St.Chans.push_back(std::make_unique<Channel>(RT));
    St.Done.emplace_back(Schedules[I].size(), 0);
    Total += Schedules[I].size();
  }
  // Reserved up front: the workers' hot path must not allocate.
  for (ServeState::PerWorker &Wk : St.Workers)
    Wk.Samples.reserve(Total);

  {
    Span S(SpanKind::RuntimeRun);
    RT.run(&serveMain, &St);
  }

  PhaseResult P;
  uint64_t Last = 0;
  std::vector<uint64_t> Samples;
  for (const ServeState::PerWorker &Wk : St.Workers) {
    Samples.insert(Samples.end(), Wk.Samples.begin(), Wk.Samples.end());
    P.Latency.merge(Wk.Latency);
    P.Queue.merge(Wk.Queue);
    P.Service.merge(Wk.Service);
    P.Ops.Gets += Wk.Ops.Gets;
    P.Ops.Puts += Wk.Ops.Puts;
    P.Ops.Deletes += Wk.Ops.Deletes;
    P.Ops.Compute += Wk.Ops.Compute;
    P.Failed += Wk.Failed;
    P.WithinSlo += Wk.WithinSlo;
    if (Wk.LastDone > Last)
      Last = Wk.LastDone;
  }
  for (const LatencyRecorder &L : St.GenLate)
    P.GenLate.merge(L);
  for (const std::vector<uint8_t> &D : St.Done)
    for (uint8_t N : D) {
      P.Scheduled++;
      if (N != 1)
        P.Failed++;
    }
  P.Seconds = static_cast<double>(Last) / 1e9;
  if (!Samples.empty()) {
    auto Mid =
        Samples.begin() + static_cast<std::ptrdiff_t>(Samples.size() / 2);
    std::nth_element(Samples.begin(), Mid, Samples.end());
    P.P50Nanos = static_cast<double>(*Mid);
    if (Samples.size() % 2 == 0)
      P.P50Nanos = 0.5 * (P.P50Nanos +
                          static_cast<double>(*std::max_element(
                              Samples.begin(), Mid)));
  }
  return P;
}
