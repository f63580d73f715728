//===- hostbench/Workloads.cpp --------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Trace.h"

#include "gc/Handles.h"
#include "runtime/Rope.h"
#include "runtime/VProc.h"
#include "service/KVStore.h"
#include "support/XorShift.h"
#include "workloads/Quicksort.h"
#include "workloads/Raytracer.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include <malloc.h>
#include <sys/resource.h>

using namespace hostbench;
using namespace manti;

Sizes Sizes::full() {
  Sizes S;
  S.QsElements = 8'000'000;
  S.QsCutoff = 4096;
  S.QsSlice = 1024;
  S.RtDim = 3072;
  S.RtSegment = 256;
  S.RtSampleRows = 8;
  S.RtSetupReps = 16;
  S.KvKeySpace = 1 << 14;
  S.KvValueBytes = 256;
  S.DrainPerGen[0] = 4000;   // quicksort slices
  S.DrainPerGen[1] = 4000;   // raytracer segments
  S.DrainPerGen[2] = 150000; // kv requests
  S.OpenRate[0] = 3000;
  S.OpenRate[1] = 3000;
  S.OpenRate[2] = 300000;
  S.OpenSeconds = 1.0;
  S.SloNanos = 1'000'000;
  return S;
}

Sizes Sizes::tiny() {
  Sizes S = full();
  S.QsElements = 40'000;
  S.QsSlice = 512;
  S.RtDim = 96;
  S.RtSegment = 32;
  S.RtSampleRows = 4;
  S.KvKeySpace = 1024;
  S.DrainPerGen[0] = 200;
  S.DrainPerGen[1] = 200;
  S.DrainPerGen[2] = 2000;
  S.OpenRate[0] = 4000;
  S.OpenRate[1] = 4000;
  S.OpenRate[2] = 40000;
  S.OpenSeconds = 0.05;
  return S;
}

double hostbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

unsigned hostbench::servingWorkers(unsigned VProcs) {
  return VProcs >= 4 ? 2 : 1;
}

namespace {

double secondsSince(uint64_t T0) {
  return static_cast<double>(nowNanos() - T0) / 1e9;
}

/// Deterministic per-purpose seed derived from the benchmark seed.
uint64_t subSeed(uint64_t Seed, uint64_t Purpose) {
  uint64_t X = Seed * 0x9e3779b97f4a7c15ull + Purpose * 0xbf58476d1ce4e5b9ull;
  X ^= X >> 31;
  return X | 1;
}

uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// Order-independent multiset digest: a plain sum plus a sum of mixed
/// words, so a lost or duplicated element cannot cancel out.
struct Digest {
  uint64_t Sum = 0, Mixed = 0, Count = 0;
  void add(uint64_t W) {
    Sum += W;
    Mixed += mix64(W);
    Count++;
  }
  bool operator==(const Digest &O) const {
    return Sum == O.Sum && Mixed == O.Mixed && Count == O.Count;
  }
};

bool sortedAsInt(const std::vector<uint64_t> &V) {
  return std::is_sorted(V.begin(), V.end(), [](uint64_t A, uint64_t B) {
    return static_cast<int64_t>(A) < static_cast<int64_t>(B);
  });
}

/// Returns freed heap memory to the kernel and resets its peak-RSS mark
/// (VmHWM) to the current RSS, so a round's peak does not depend on
/// what earlier rounds left cached. \returns false where
/// /proc/self/clear_refs is not writable.
bool resetPeakRss() {
  malloc_trim(0);
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

/// Peak RSS in MB since the last reset (process lifetime without one).
double peakRssMb() {
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long Kb = -1;
    while (std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) == 1)
        break;
    std::fclose(F);
    if (Kb >= 0)
      return static_cast<double>(Kb) / 1024.0;
  }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// The RuntimeConfig/GCConfig fields the benchmark sets, and only these:
/// NumVProcs, PinThreads, LocalHeapBytes, GlobalGCBytesPerVProc,
/// ConcurrentGlobal. kv-serve uses bench_serving_kv's tight-conc budgets
/// (small nursery, low global trigger, concurrent global collector).
///
/// Threads are not pinned. A pinned serving worker cannot move away from
/// another process busy on its core: with one such process on a 4-core
/// host, pinned raytracer serving fell from ~20k to 1.2k-3.6k rps and
/// its SLO share to under 50%, while unpinned serving held ~19k-21k rps.
RuntimeConfig runtimeConfig(WorkloadKind K, unsigned VProcs) {
  RuntimeConfig C;
  C.NumVProcs = VProcs;
  C.PinThreads = false;
  if (K == WorkloadKind::KVServe) {
    C.GC.LocalHeapBytes = 256 * 1024;
    C.GC.GlobalGCBytesPerVProc = 128 * 1024;
    C.GC.ConcurrentGlobal = true;
  }
  return C;
}

std::unique_ptr<Runtime> makeRuntime(WorkloadKind K, unsigned VProcs,
                                     const Topology &Topo) {
  Span S(SpanKind::RuntimeCtor);
  return std::make_unique<Runtime>(runtimeConfig(K, VProcs), Topo);
}

/// Runtime::run under a span; \returns its wall time in seconds.
double runOn(Runtime &RT, MainFn Main, void *Ctx) {
  Span S(SpanKind::RuntimeRun);
  uint64_t T0 = nowNanos();
  RT.run(Main, Ctx);
  return secondsSince(T0);
}

std::vector<std::vector<Request>> schedules(unsigned Workers,
                                            TrafficConfig Traffic,
                                            uint64_t PerGen, double Rate) {
  Traffic.RequestsPerGen = PerGen;
  Traffic.RatePerGen = Rate / Workers;
  std::vector<std::vector<Request>> Out;
  for (unsigned G = 0; G < Workers; ++G)
    Out.push_back(buildSchedule(Traffic, G));
  return Out;
}

/// Closed-loop drain (every request due at t=0) and open-loop phase
/// schedules for one workload.
struct ServingInputs {
  std::vector<std::vector<Request>> Drain, Open;
};

ServingInputs servingInputs(const RunConfig &Cfg, unsigned Workers,
                            uint64_t KeySpace) {
  const int W = static_cast<int>(Cfg.Kind);
  TrafficConfig T;
  T.KeySpace = KeySpace;
  T.ValueBytes = Cfg.Sz.KvValueBytes;
  ServingInputs In;
  T.Seed = subSeed(Cfg.Seed, 10);
  In.Drain = schedules(Workers, T, Cfg.Sz.DrainPerGen[W], 1e12);
  T.Seed = subSeed(Cfg.Seed, 11);
  double Rate = Cfg.Sz.OpenRate[W];
  In.Open = schedules(
      Workers, T,
      static_cast<uint64_t>(Rate * Cfg.Sz.OpenSeconds / Workers), Rate);
  return In;
}

/// Serves both phases on \p RT and records them in \p R. \returns the
/// two runs' wall time in seconds.
double servePhases(RoundResult &R, Runtime &RT, Service &Svc,
                   const ServingInputs &In, const Sizes &Sz) {
  uint64_t T0 = nowNanos();
  R.Drain = serve(RT, Svc, In.Drain, Sz.SloNanos);
  R.Open = serve(RT, Svc, In.Open, Sz.SloNanos);
  double Seconds = secondsSince(T0);
  R.CapacityRps = R.Drain.Seconds > 0
                      ? static_cast<double>(R.Drain.Scheduled) /
                            R.Drain.Seconds
                      : 0;
  R.SloPct = R.Open.Scheduled ? 100.0 * static_cast<double>(R.Open.WithinSlo) /
                                    static_cast<double>(R.Open.Scheduled)
                              : 0;
  R.P50Us = R.Open.P50Nanos / 1e3;
  R.Phases["drain"] = {R.Drain.Scheduled, R.Drain.Failed};
  R.Phases["open"] = {R.Open.Scheduled, R.Open.Failed};
  if (R.Drain.Failed || R.Open.Failed)
    R.Errors.push_back("serving: " +
                       std::to_string(R.Drain.Failed + R.Open.Failed) +
                       " requests failed or did not complete exactly once");
  return Seconds;
}

/// Counters of \p RT's runs since \p Before, with their identities
/// checked.
Counters runsSince(RoundResult &R, Runtime &RT, const Counters &Before,
                   bool Concurrent, const char *Where) {
  Counters D = Counters::read(RT).since(Before);
  D.checkIdentities(Concurrent, Where, R.Errors);
  return D;
}

//===----------------------------------------------------------------------===//
// quicksort
//===----------------------------------------------------------------------===//

struct QsRun {
  const std::vector<uint64_t> *Input;
  Digest Expect;
  int64_t Cutoff;
  double BuildS = 0, WallS = 0, VerifyS = 0;
  bool Ok = false;
};

void qsMain(Runtime &RT, VProc &VP, void *Ctx) {
  QsRun &Q = *static_cast<QsRun *>(Ctx);
  RootScope S(VP.heap());
  uint64_t T0 = nowNanos();
  Ref<> In = S.root(Value::nil());
  {
    Span Sp(SpanKind::InputBuild);
    In = rope::fromArray(VP.heap(), Q.Input->data(),
                         static_cast<int64_t>(Q.Input->size()));
  }
  uint64_t T1 = nowNanos();
  Ref<> Out = S.root(Value::nil());
  {
    Span Sp(SpanKind::WorkloadEntry);
    Out = workloads::quicksort(RT, VP, In, Q.Cutoff);
  }
  uint64_t T2 = nowNanos();
  {
    Span Sp(SpanKind::Verify);
    std::vector<uint64_t> Buf(static_cast<std::size_t>(rope::length(Out)));
    rope::toArray(Out, Buf.data());
    Digest Got;
    for (uint64_t W : Buf)
      Got.add(W);
    Q.Ok = sortedAsInt(Buf) && Got == Q.Expect;
  }
  Q.BuildS = static_cast<double>(T1 - T0) / 1e9;
  Q.WallS = static_cast<double>(T2 - T1) / 1e9;
  Q.VerifyS = secondsSince(T2);
}

class QsService : public Service {
public:
  QsService(Runtime &RT, const std::vector<uint64_t> &Input, int64_t Slice,
            int64_t Cutoff, unsigned Workers)
      : RT(RT), Input(Input), Slice(Slice), Cutoff(Cutoff), Workers(Workers) {
  }
  uint64_t numSlices() const {
    return static_cast<uint64_t>(static_cast<int64_t>(Input.size()) / Slice);
  }
  unsigned route(uint64_t Key) const override {
    return static_cast<unsigned>(Key % Workers);
  }
  bool execute(VProc &VP, const Request &R, OpTally &Ops) override {
    const uint64_t *Lo =
        Input.data() + static_cast<int64_t>(R.Key % numSlices()) * Slice;
    Digest Expect;
    for (int64_t I = 0; I < Slice; ++I)
      Expect.add(Lo[I]);
    RootScope S(VP.heap());
    Ref<> In = S.root(Value::nil());
    Ref<> Out = S.root(Value::nil());
    {
      Span Sp(SpanKind::WorkloadEntry);
      In = rope::fromArray(VP.heap(), Lo, Slice);
      Out = workloads::quicksort(RT, VP, In, Cutoff);
    }
    Span Sp(SpanKind::Verify);
    std::vector<uint64_t> Buf(static_cast<std::size_t>(rope::length(Out)));
    rope::toArray(Out, Buf.data());
    Digest Got;
    for (uint64_t W : Buf)
      Got.add(W);
    Ops.Compute++;
    return sortedAsInt(Buf) && Got == Expect;
  }

private:
  Runtime &RT;
  const std::vector<uint64_t> &Input;
  int64_t Slice, Cutoff;
  unsigned Workers;
};

RoundResult quicksortRound(const RunConfig &Cfg, const Topology &Topo) {
  RoundResult R;
  const Sizes &Sz = Cfg.Sz;
  const unsigned W = servingWorkers(Cfg.VProcs);
  resetPeakRss();
  uint64_t T0 = nowNanos();
  std::unique_ptr<Runtime> RT =
      makeRuntime(WorkloadKind::Quicksort, Cfg.VProcs, Topo);
  Counters Base = Counters::read(*RT);
  std::vector<uint64_t> Input(static_cast<std::size_t>(Sz.QsElements));
  Digest Expect;
  ServingInputs Serving;
  {
    Span Sp(SpanKind::InputBuild);
    XorShift64 Rng(subSeed(Cfg.Seed, 1));
    for (uint64_t &V : Input) {
      V = Rng.next() >> 8; // positive as int64
      Expect.add(V);
    }
    Serving = servingInputs(
        Cfg, W, static_cast<uint64_t>(Sz.QsElements / Sz.QsSlice));
  }
  double SetupS = secondsSince(T0);

  QsRun Q{&Input, Expect, Sz.QsCutoff};
  R.VProcMs = runOn(*RT, &qsMain, &Q) * 1e3 * Cfg.VProcs;
  R.N = runsSince(R, *RT, Base, false, "N-vproc batch");
  R.SetupS = SetupS + Q.BuildS;
  R.WallS = Q.WallS;
  R.VerifyS += Q.VerifyS;
  R.Items = Input.size();
  R.Phases["batch_n"] = {1, Q.Ok ? 0u : 1u};
  if (!Q.Ok)
    R.Errors.push_back("quicksort at N vprocs: output not sorted or its "
                       "digest differs from the input's");

  QsService Svc(*RT, Input, Sz.QsSlice, Sz.QsCutoff, W);
  Counters Batched = Counters::restart(*RT);
  servePhases(R, *RT, Svc, Serving, Sz);
  R.Serving = runsSince(R, *RT, Batched, false, "serving");
  R.PeakRssMb = peakRssMb();
  RT.reset();

  std::unique_ptr<Runtime> RT1 =
      makeRuntime(WorkloadKind::Quicksort, 1, Topo);
  Counters Base1 = Counters::read(*RT1);
  QsRun Q1{&Input, Expect, Sz.QsCutoff};
  runOn(*RT1, &qsMain, &Q1);
  R.SerialWallS = Q1.WallS;
  R.VerifyS += Q1.VerifyS;
  R.Phases["batch_1"] = {1, Q1.Ok ? 0u : 1u};
  if (!Q1.Ok)
    R.Errors.push_back("quicksort at 1 vproc: output not sorted or its "
                       "digest differs from the input's");
  runsSince(R, *RT1, Base1, false, "1-vproc batch");
  return R;
}

//===----------------------------------------------------------------------===//
// raytracer
//===----------------------------------------------------------------------===//

struct RtRun {
  workloads::RaytracerParams P;
  std::vector<uint32_t> Image;
  workloads::RaytracerResult Res;
  double WallS = 0;
};

void rtMain(Runtime &RT, VProc &VP, void *Ctx) {
  RtRun &Run = *static_cast<RtRun *>(Ctx);
  Span Sp(SpanKind::WorkloadEntry);
  uint64_t T0 = nowNanos();
  Run.Res = workloads::runRaytracer(RT, VP, Run.P, &Run.Image);
  Run.WallS = secondsSince(T0);
}

class RtService : public Service {
public:
  RtService(const std::vector<workloads::Sphere> &Scene,
            const workloads::RaytracerParams &P,
            const std::vector<uint32_t> &Image, int Segment, unsigned Workers)
      : Scene(Scene), P(P), Image(Image), Segment(Segment),
        SegsPerRow(P.Width / Segment), Workers(Workers) {}
  uint64_t numSegments() const {
    return static_cast<uint64_t>(SegsPerRow) * static_cast<uint64_t>(P.Height);
  }
  unsigned route(uint64_t Key) const override {
    return static_cast<unsigned>(Key % Workers);
  }
  bool execute(VProc &VP, const Request &R, OpTally &Ops) override {
    const uint64_t Seg = R.Key % numSegments();
    const int Y = static_cast<int>(Seg / static_cast<uint64_t>(SegsPerRow));
    const int X0 =
        static_cast<int>(Seg % static_cast<uint64_t>(SegsPerRow)) * Segment;
    std::vector<uint64_t> Px(static_cast<std::size_t>(Segment));
    RootScope S(VP.heap());
    Ref<> Row = S.root(Value::nil());
    {
      Span Sp(SpanKind::WorkloadEntry);
      for (int I = 0; I < Segment; ++I)
        Px[static_cast<std::size_t>(I)] =
            workloads::tracePixel(Scene, X0 + I, Y, P);
      Row = rope::fromArray(VP.heap(), Px.data(), Segment);
    }
    Span Sp(SpanKind::Verify);
    rope::toArray(Row, Px.data());
    const uint32_t *Ref =
        Image.data() + static_cast<std::size_t>(Y) * P.Width + X0;
    Ops.Compute++;
    for (int I = 0; I < Segment; ++I)
      if (Px[static_cast<std::size_t>(I)] != Ref[I])
        return false;
    return true;
  }

private:
  const std::vector<workloads::Sphere> &Scene;
  const workloads::RaytracerParams &P;
  const std::vector<uint32_t> &Image;
  int Segment, SegsPerRow;
  unsigned Workers;
};

/// Checks the image against its checksum and re-traces sampled rows.
bool checkImage(const RtRun &Run, const std::vector<workloads::Sphere> &Scene,
                uint64_t Seed, int SampleRows) {
  const workloads::RaytracerParams &P = Run.P;
  if (Run.Image.size() != static_cast<std::size_t>(P.Width) * P.Height ||
      Run.Res.Pixels != static_cast<int64_t>(Run.Image.size()))
    return false;
  uint64_t Sum = 0;
  for (uint32_t Px : Run.Image)
    Sum += Px;
  if (Sum != Run.Res.Checksum)
    return false;
  XorShift64 Rng(subSeed(Seed, 3));
  for (int I = 0; I < SampleRows; ++I) {
    int Y = static_cast<int>(Rng.nextBelow(static_cast<uint64_t>(P.Height)));
    for (int X = 0; X < P.Width; ++X)
      if (workloads::tracePixel(Scene, X, Y, P) !=
          Run.Image[static_cast<std::size_t>(Y) * P.Width + X])
        return false;
  }
  return true;
}

RoundResult raytracerRound(const RunConfig &Cfg, const Topology &Topo) {
  RoundResult R;
  const Sizes &Sz = Cfg.Sz;
  const unsigned W = servingWorkers(Cfg.VProcs);
  resetPeakRss();
  // One set-up takes under a millisecond, so a single sample per round
  // would be mostly noise: set up RtSetupReps times, report the median,
  // and keep the last runtime and inputs.
  std::unique_ptr<Runtime> RT;
  RtRun Run;
  std::vector<workloads::Sphere> Scene;
  ServingInputs Serving;
  std::vector<double> Setups;
  for (unsigned I = 0; I < Sz.RtSetupReps; ++I) {
    RT.reset();
    uint64_t T0 = nowNanos();
    RT = makeRuntime(WorkloadKind::Raytracer, Cfg.VProcs, Topo);
    Span Sp(SpanKind::InputBuild);
    Run.P.Width = Run.P.Height = Sz.RtDim;
    Run.P.Seed = subSeed(Cfg.Seed, 2);
    Scene = workloads::makeScene(Run.P);
    Serving = servingInputs(
        Cfg, W,
        static_cast<uint64_t>(Sz.RtDim / Sz.RtSegment) *
            static_cast<uint64_t>(Sz.RtDim));
    Setups.push_back(secondsSince(T0));
  }
  R.SetupS = median(Setups);
  Counters Base = Counters::read(*RT);

  R.VProcMs = runOn(*RT, &rtMain, &Run) * 1e3 * Cfg.VProcs;
  R.N = runsSince(R, *RT, Base, false, "N-vproc batch");
  R.WallS = Run.WallS;
  R.Items = Run.Image.size();
  bool Ok;
  {
    Span Sp(SpanKind::Verify);
    uint64_t V0 = nowNanos();
    Ok = checkImage(Run, Scene, Cfg.Seed, Sz.RtSampleRows);
    R.VerifyS += secondsSince(V0);
  }
  R.Phases["batch_n"] = {1, Ok ? 0u : 1u};
  if (!Ok)
    R.Errors.push_back("raytracer at N vprocs: image disagrees with its "
                       "checksum or with tracePixel on sampled rows");

  RtService Svc(Scene, Run.P, Run.Image, Sz.RtSegment, W);
  Counters Batched = Counters::restart(*RT);
  servePhases(R, *RT, Svc, Serving, Sz);
  R.Serving = runsSince(R, *RT, Batched, false, "serving");
  R.PeakRssMb = peakRssMb();
  RT.reset();

  std::unique_ptr<Runtime> RT1 =
      makeRuntime(WorkloadKind::Raytracer, 1, Topo);
  Counters Base1 = Counters::read(*RT1);
  RtRun Run1;
  Run1.P = Run.P;
  runOn(*RT1, &rtMain, &Run1);
  R.SerialWallS = Run1.WallS;
  bool Ok1;
  {
    Span Sp(SpanKind::Verify);
    uint64_t V0 = nowNanos();
    Ok1 = Run1.Res.Checksum == Run.Res.Checksum && Run1.Image == Run.Image &&
          checkImage(Run1, Scene, Cfg.Seed, Sz.RtSampleRows);
    R.VerifyS += secondsSince(V0);
  }
  R.Phases["batch_1"] = {1, Ok1 ? 0u : 1u};
  if (!Ok1)
    R.Errors.push_back("raytracer at 1 vproc: image or checksum differs "
                       "from the N-vproc render");
  runsSince(R, *RT1, Base1, false, "1-vproc batch");
  return R;
}

//===----------------------------------------------------------------------===//
// kv-serve
//===----------------------------------------------------------------------===//

bool runKVOp(KVStore &Store, VProc &VP, const Request &R, OpTally &Ops) {
  switch (R.Op) {
  case OpKind::Get: {
    Span Sp(SpanKind::KVGet);
    Store.get(VP, R.Key);
    Ops.Gets++;
    break;
  }
  case OpKind::Put: {
    Span Sp(SpanKind::KVPut);
    Store.put(VP, R.Key, R.ValueBytes);
    Ops.Puts++;
    break;
  }
  case OpKind::Delete: {
    Span Sp(SpanKind::KVErase);
    Store.erase(VP, R.Key);
    Ops.Deletes++;
    break;
  }
  }
  return true; // corruptions are counted by the store, checked per phase
}

class KVService : public Service {
public:
  explicit KVService(KVStore &Store) : Store(Store) {}
  unsigned route(uint64_t Key) const override { return Store.shardOf(Key); }
  NodeId home(unsigned W) const override { return Store.shardHome(W); }
  bool execute(VProc &VP, const Request &R, OpTally &Ops) override {
    return runKVOp(Store, VP, R, Ops);
  }

private:
  KVStore &Store;
};

struct KVPreload {
  KVStore *Store;
  uint64_t Keys;
  uint32_t Bytes;
};

void kvPreloadMain(Runtime &, VProc &VP, void *Ctx) {
  KVPreload &L = *static_cast<KVPreload *>(Ctx);
  Span Sp(SpanKind::InputBuild);
  for (uint64_t K = 0; K < L.Keys; ++K) {
    Span Put(SpanKind::KVPut);
    L.Store->put(VP, K, L.Bytes);
  }
}

struct KVSerial {
  KVStore *Store;
  const std::vector<std::vector<Request>> *Schedules;
  OpTally Ops;
  double WallS = 0;
};

/// The serial baseline: one vproc runs the drain's requests (generators
/// interleaved) straight against a store, with no channels.
void kvSerialMain(Runtime &, VProc &VP, void *Ctx) {
  KVSerial &S = *static_cast<KVSerial *>(Ctx);
  Span Sp(SpanKind::WorkloadEntry);
  uint64_t T0 = nowNanos();
  std::size_t Len = 0;
  for (const auto &Sched : *S.Schedules)
    Len = std::max(Len, Sched.size());
  for (std::size_t I = 0; I < Len; ++I)
    for (const auto &Sched : *S.Schedules)
      if (I < Sched.size())
        runKVOp(*S.Store, VP, Sched[I], S.Ops);
  S.WallS = secondsSince(T0);
}

RoundResult kvRound(const RunConfig &Cfg, const Topology &Topo) {
  RoundResult R;
  const Sizes &Sz = Cfg.Sz;
  const unsigned W = servingWorkers(Cfg.VProcs);
  resetPeakRss();
  uint64_t T0 = nowNanos();
  std::unique_ptr<Runtime> RT =
      makeRuntime(WorkloadKind::KVServe, Cfg.VProcs, Topo);
  Counters Base = Counters::read(*RT);
  std::unique_ptr<KVStore> Store;
  ServingInputs Serving;
  {
    Span Sp(SpanKind::InputBuild);
    Store = std::make_unique<KVStore>(*RT, W);
    Serving = servingInputs(Cfg, W, Sz.KvKeySpace);
  }
  KVPreload Load{Store.get(), Sz.KvKeySpace, Sz.KvValueBytes};
  runOn(*RT, &kvPreloadMain, &Load);
  R.SetupS = secondsSince(T0);
  R.Phases["preload"] = {Sz.KvKeySpace, Store->corruptions()};
  runsSince(R, *RT, Base, true, "preload");

  // The timed region is the serving itself.
  KVService Svc(*Store);
  uint64_t Misses0 = Store->misses();
  Counters Loaded = Counters::restart(*RT);
  R.VProcMs = servePhases(R, *RT, Svc, Serving, Sz) * 1e3 * Cfg.VProcs;
  R.N = R.Serving = runsSince(R, *RT, Loaded, true, "serving");
  R.WallS = R.Drain.Seconds;
  R.Items = R.Drain.Scheduled;
  R.Misses = Store->misses() - Misses0;
  R.Corruptions = Store->corruptions();
  if (R.Corruptions) {
    R.Phases["open"].Failed += R.Corruptions;
    R.Errors.push_back("kv-serve: " + std::to_string(R.Corruptions) +
                       " corrupt entries");
  }
  Store.reset(); // root providers unregister before the runtime goes
  R.PeakRssMb = peakRssMb();
  RT.reset();

  std::unique_ptr<Runtime> RT1 = makeRuntime(WorkloadKind::KVServe, 1, Topo);
  Counters Base1 = Counters::read(*RT1);
  std::unique_ptr<KVStore> Store1;
  {
    Span Sp(SpanKind::InputBuild);
    Store1 = std::make_unique<KVStore>(*RT1, W);
  }
  KVPreload Load1{Store1.get(), Sz.KvKeySpace, Sz.KvValueBytes};
  runOn(*RT1, &kvPreloadMain, &Load1);
  KVSerial Serial{Store1.get(), &Serving.Drain, {}};
  runOn(*RT1, &kvSerialMain, &Serial);
  R.SerialWallS = Serial.WallS;
  uint64_t SerialOps =
      Serial.Ops.Gets + Serial.Ops.Puts + Serial.Ops.Deletes;
  R.Phases["batch_1"] = {SerialOps, Store1->corruptions()};
  if (Store1->corruptions() || SerialOps != R.Drain.Scheduled)
    R.Errors.push_back("kv-serve at 1 vproc: corrupt entries or lost "
                       "requests");
  Store1.reset();
  runsSince(R, *RT1, Base1, true, "1-vproc batch");
  return R;
}

} // namespace

RoundResult hostbench::runRound(const RunConfig &Run, const Topology &Topo) {
  Span Sp(SpanKind::Round);
  RunConfig Cfg = Run;
  Cfg.Seed = subSeed(Run.Seed, 1000 + Run.InputIndex);
  switch (Cfg.Kind) {
  case WorkloadKind::Quicksort:
    return quicksortRound(Cfg, Topo);
  case WorkloadKind::Raytracer:
    return raytracerRound(Cfg, Topo);
  case WorkloadKind::KVServe:
    return kvRound(Cfg, Topo);
  }
  return {};
}
