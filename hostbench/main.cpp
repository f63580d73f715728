//===- hostbench/main.cpp - the repository benchmark ----------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload (quicksort, raytracer, kv-serve) on the real
/// runtime over Topology::host() with N = min(nproc, 4) vprocs, in
/// rounds, for about --seconds seconds, and prints the medians over the
/// rounds. The last stdout line is one JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// With --trace 0 the metrics are the end-to-end ones; with --trace 1
/// they are the per-layer ones (library counters around each run, spans
/// around every library call the benchmark makes), and every other round
/// runs untraced so trace.overhead_pct can compare the two.
///
/// Usage:
///   hostbench --workload quicksort|raytracer|kv-serve --seed N
///             --seconds S --trace 0|1 [--size full|tiny] [--rounds K]
///             [--source-id ID] [--check-spans]
///
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <dirent.h>
#include <sched.h>

using namespace hostbench;
using namespace manti;

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  unsigned Rounds = 0; ///< 0: as many as fit in Seconds
  std::string SourceId = "unknown";
  bool CheckSpans = false;
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload "
               "quicksort|raytracer|kv-serve --seed N --seconds S --trace "
               "0|1 [--size full|tiny] [--rounds K] [--source-id ID] "
               "[--check-spans]\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = std::strtoull(Next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Next().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Next() == "1";
    else if (A == "--size") {
      std::string S = Next();
      if (S != "full" && S != "tiny")
        usage("--size must be full or tiny");
      O.Tiny = S == "tiny";
    } else if (A == "--rounds")
      O.Rounds = static_cast<unsigned>(std::strtoul(Next().c_str(), nullptr,
                                                    10));
    else if (A == "--source-id")
      O.SourceId = Next();
    else if (A == "--check-spans")
      O.CheckSpans = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Workload.empty())
    usage("--workload is required");
  return O;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

//===----------------------------------------------------------------------===//
// Host fingerprint
//===----------------------------------------------------------------------===//

std::string readFirstLine(const std::string &Path) {
  std::ifstream F(Path);
  std::string L;
  std::getline(F, L);
  return L;
}

std::string cpuModel() {
  std::ifstream F("/proc/cpuinfo");
  std::string L;
  while (std::getline(F, L))
    if (L.rfind("model name", 0) == 0) {
      std::size_t C = L.find(':');
      return C == std::string::npos ? L : L.substr(C + 2);
    }
  return "unknown";
}

/// Size of the highest-level cache of cpu0, as sysfs prints it.
std::string llcSize() {
  const std::string Base = "/sys/devices/system/cpu/cpu0/cache/";
  std::string Best = "unknown";
  int BestLevel = -1;
  if (DIR *D = opendir(Base.c_str())) {
    while (dirent *E = readdir(D)) {
      if (std::strncmp(E->d_name, "index", 5) != 0)
        continue;
      std::string Dir = Base + E->d_name + "/";
      int Level = std::atoi(readFirstLine(Dir + "level").c_str());
      if (Level > BestLevel) {
        BestLevel = Level;
        Best = "L" + std::to_string(Level) + " " +
               readFirstLine(Dir + "size");
      }
    }
    closedir(D);
  }
  return Best;
}

unsigned onlineCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return 1;
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      O += C;
  }
  return O;
}

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

constexpr double MB = 1024.0 * 1024.0;

std::vector<Metric> endToEnd(const std::vector<RoundResult> &Rs) {
  auto Med = [&](double RoundResult::*F) {
    std::vector<double> V;
    for (const RoundResult &R : Rs)
      V.push_back(R.*F);
    return median(V);
  };
  return {
      {"setup_s", Med(&RoundResult::SetupS), "s"},
      {"wall_s", Med(&RoundResult::WallS), "s"},
      {"serial_wall_s", Med(&RoundResult::SerialWallS), "s"},
      {"peak_rss_mb", Med(&RoundResult::PeakRssMb), "MB"},
      {"capacity_rps", Med(&RoundResult::CapacityRps), "1/s"},
      {"slo_pct", Med(&RoundResult::SloPct), "%"},
      {"p50_us", Med(&RoundResult::P50Us), "us"},
  };
}

double us(uint64_t Nanos) { return static_cast<double>(Nanos) / 1e3; }

/// One round's per-layer values (counter-derived; spans come later).
std::vector<Metric> roundLayers(const RoundResult &R, unsigned Nodes) {
  const Counters &C = R.N;
  const double Lookups =
      static_cast<double>(C.SizeClassHits + C.SizeClassMisses);
  const double BusyMs = static_cast<double>(C.MinorNanos + C.MajorNanos +
                                            C.PromoteNanos + C.GlobalNanos) /
                        1e6;
  const double StealAttempts =
      static_cast<double>(C.Sched.StealBatches + C.Sched.FailedStealAttempts);
  const double ParkMs = static_cast<double>(C.Sched.ParkNanos) / 1e6;
  const double ChunkReqs =
      static_cast<double>(C.ChunkLocal + C.ChunkSteals + C.ChunkFresh);
  const PhaseResult &O = R.Open;
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  return {
      {"gc.alloc_local_mb", D(C.AllocLocal) / MB, "MB"},
      {"gc.alloc_global_mb", D(C.AllocGlobal) / MB, "MB"},
      {"gc.sizeclass_lookups", Lookups, "count"},
      {"gc.sizeclass_hit_pct", 100 * ratio(D(C.SizeClassHits), Lookups), "%"},
      {"gc.minor.count", D(C.MinorCount), "count"},
      {"gc.minor.busy_ms", D(C.MinorNanos) / 1e6, "ms"},
      {"gc.minor.copied_mb", D(C.MinorCopied) / MB, "MB"},
      {"gc.minor.max_pause_us", us(C.MinorMaxNanos), "us"},
      {"gc.major.count", D(C.MajorCount), "count"},
      {"gc.major.busy_ms", D(C.MajorNanos) / 1e6, "ms"},
      {"gc.major.promoted_mb", D(C.MajorPromoted) / MB, "MB"},
      {"gc.promote.count", D(C.PromoteCount), "count"},
      {"gc.promote.busy_ms", D(C.PromoteNanos) / 1e6, "ms"},
      {"gc.promote.mb", D(C.PromoteBytes) / MB, "MB"},
      {"gc.global.cycles", D(C.Cycles), "count"},
      {"gc.global.concurrent_cycles", D(C.ConcurrentCycles), "count"},
      {"gc.global.stw_fallbacks", D(C.Cycles - C.ConcurrentCycles), "count"},
      {"gc.global.pause_samples", D(C.GlobalSamples), "count"},
      {"gc.global.pause_ms", D(C.GlobalNanos) / 1e6, "ms"},
      {"gc.global.max_pause_us", us(C.GlobalMaxNanos), "us"},
      {"gc.global.rendezvous_ms", D(C.GlobalRendezvousNanos) / 1e6, "ms"},
      {"gc.global.mark_ms", D(C.GlobalMarkNanos) / 1e6, "ms"},
      {"gc.global.sweep_ms", D(C.GlobalSweepNanos) / 1e6, "ms"},
      {"gc.global.copied_mb", D(C.GlobalCopied) / MB, "MB"},
      {"gc.busy_ms", BusyMs, "ms"},
      {"gc.busy_pct", 100 * ratio(BusyMs, R.VProcMs), "%"},
      {"gc.max_pause_us", us(C.MaxPauseNanos), "us"},
      {"sched.vproc_ms", R.VProcMs, "ms"},
      {"sched.spawns", D(C.Sched.Spawns), "count"},
      {"sched.tasks_stolen", D(C.Sched.TasksStolen), "count"},
      {"sched.steal_attempts", StealAttempts, "count"},
      {"sched.steal_success_pct",
       100 * ratio(D(C.Sched.StealBatches), StealAttempts), "%"},
      {"sched.failed_steal_rounds", D(C.Sched.FailedStealRounds), "count"},
      {"sched.parks", D(C.Sched.Parks), "count"},
      {"sched.park_ms", ParkMs, "ms"},
      {"sched.idle_pct", 100 * ratio(ParkMs, R.VProcMs), "%"},
      {"sched.rings_sent", D(C.Sched.RingsSent), "count"},
      {"sched.rings_wasted_pct",
       100 * ratio(D(C.Sched.RingsWasted), D(C.Sched.RingsSent)), "%"},
      {"sched.ring_wakeups", D(C.Sched.RingWakeups), "count"},
      {"sched.tasks_shed", D(C.Sched.TasksShed), "count"},
      {"sched.speedup", ratio(R.SerialWallS, R.WallS), "x"},
      {"numa.nodes", D(Nodes), "count"},
      {"numa.chunk_requests", ChunkReqs, "count"},
      {"numa.chunk_local_pct", 100 * ratio(D(C.ChunkLocal), ChunkReqs), "%"},
      {"numa.fresh_mappings", D(C.CMFresh), "count"},
      {"numa.chunks_created", D(C.ChunksCreated), "count"},
      {"numa.traffic_mb", D(C.TrafficBytes) / MB, "MB"},
      {"numa.remote_traffic_pct",
       100 * ratio(D(C.TrafficRemoteBytes), D(C.TrafficBytes)), "%"},
      {"svc.requests", D(O.Scheduled), "count"},
      {"svc.queue_us.p50", us(O.Queue.percentileNanos(50)), "us"},
      {"svc.queue_us.p99", us(O.Queue.percentileNanos(99)), "us"},
      {"svc.service_us.p50", us(O.Service.percentileNanos(50)), "us"},
      {"svc.service_us.p99", us(O.Service.percentileNanos(99)), "us"},
      {"svc.gen_late_us.p99", us(O.GenLate.percentileNanos(99)), "us"},
      {"svc.gets", D(O.Ops.Gets), "count"},
      {"svc.puts", D(O.Ops.Puts), "count"},
      {"svc.deletes", D(O.Ops.Deletes), "count"},
      {"svc.computes", D(O.Ops.Compute), "count"},
      {"svc.misses", D(R.Misses), "count"},
      {"svc.corruptions", D(R.Corruptions), "count"},
      {"svc.p99_us", us(O.Latency.percentileNanos(99)), "us"},
      {"svc.p999_us", us(O.Latency.percentileNanos(99.9)), "us"},
      {"svc.max_us", us(O.Latency.maxNanos()), "us"},
      {"svc.gc_max_pause_us", us(R.Serving.MaxPauseNanos), "us"},
      {"svc.max_over_gc_pause",
       ratio(us(O.Latency.maxNanos()), us(R.Serving.MaxPauseNanos)), "x"},
      {"wl.items", D(R.Items), "count"},
      {"wl.verify_s", R.VerifyS, "s"},
  };
}

std::vector<Metric> perLayer(const std::vector<RoundResult> &Rs,
                             unsigned Nodes) {
  std::vector<std::vector<Metric>> Per;
  for (const RoundResult &R : Rs)
    Per.push_back(roundLayers(R, Nodes));
  std::vector<Metric> Out = Per.front();
  for (std::size_t I = 0; I < Out.size(); ++I) {
    std::vector<double> V;
    for (const auto &P : Per)
      V.push_back(P[I].Value);
    Out[I].Value = median(V);
  }

  auto Spans = Tracer::merged();
  const SpanAgg &Send = Spans[static_cast<std::size_t>(SpanKind::ChanSend)];
  const SpanAgg &Recv = Spans[static_cast<std::size_t>(SpanKind::ChanRecv)];
  uint64_t NumSpans = 0;
  for (const SpanAgg &A : Spans)
    NumSpans += A.Count;
  Out.push_back({"chan.sends", static_cast<double>(Send.Count), "count"});
  Out.push_back(
      {"chan.send_us.p50", us(Send.Durations.percentileNanos(50)), "us"});
  Out.push_back({"chan.recvs", static_cast<double>(Recv.Count), "count"});
  Out.push_back({"chan.recv_wait_us.p99",
                 us(Recv.Durations.percentileNanos(99)), "us"});
  Out.push_back({"trace.spans", static_cast<double>(NumSpans), "count"});

  // Each traced round is followed by an untraced one on the same inputs;
  // compare their timed regions pairwise.
  std::vector<double> Overheads;
  for (std::size_t I = 0; I + 1 < Rs.size(); I += 2)
    Overheads.push_back(100 * ratio(Rs[I].WallS - Rs[I + 1].WallS,
                                    Rs[I + 1].WallS));
  Out.push_back({"trace.overhead_pct", median(Overheads), "%"});
  return Out;
}

void printSpanTable() {
  auto Spans = Tracer::merged();
  std::printf("spans (traced rounds, all threads):\n");
  std::printf("  %-16s %12s %12s %12s %10s %10s\n", "span", "count",
              "total_ms", "self_ms", "p50_us", "p99_us");
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const SpanAgg &A = Spans[I];
    if (!A.Count)
      continue;
    std::printf("  %-16s %12llu %12.3f %12.3f %10.2f %10.2f\n",
                spanName(static_cast<SpanKind>(I)),
                static_cast<unsigned long long>(A.Count),
                static_cast<double>(A.TotalNanos) / 1e6,
                static_cast<double>(A.SelfNanos) / 1e6,
                us(A.Durations.percentileNanos(50)),
                us(A.Durations.percentileNanos(99)));
  }
}

/// Checks every kept span: children lie inside their parent and each
/// span's self time is its duration minus its direct children's.
std::vector<std::string> checkSpanEvents() {
  std::vector<std::string> Errors;
  for (const std::vector<SpanEvent> &Thread : Tracer::events()) {
    // Events arrive in end order (post-order); Pending[D] holds finished
    // spans at depth D still waiting for their parent at depth D - 1.
    std::vector<std::vector<SpanEvent>> Pending(ThreadTrace::MaxDepth + 1);
    for (const SpanEvent &E : Thread) {
      if (E.End < E.Start)
        Errors.push_back(std::string(spanName(E.Kind)) + " ends before it "
                                                         "starts");
      uint64_t Children = 0;
      for (const SpanEvent &C : Pending[E.Depth + 1]) {
        if (C.Start < E.Start || C.End > E.End)
          Errors.push_back(std::string(spanName(C.Kind)) +
                           " escapes its parent " + spanName(E.Kind));
        Children += C.End - C.Start;
      }
      Pending[E.Depth + 1].clear();
      if (E.Self != (E.End - E.Start) - Children)
        Errors.push_back(std::string(spanName(E.Kind)) +
                         ": self != duration - child coverage");
      Pending[E.Depth].push_back(E);
    }
    for (unsigned D = 1; D < Pending.size(); ++D)
      if (!Pending[D].empty())
        Errors.push_back("span left without a parent");
  }
  if (Tracer::overflowed())
    Errors.push_back("span stack overflowed");
  return Errors;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt = parseArgs(Argc, Argv);
  RunConfig Cfg;
  if (Opt.Workload == "quicksort")
    Cfg.Kind = WorkloadKind::Quicksort;
  else if (Opt.Workload == "raytracer")
    Cfg.Kind = WorkloadKind::Raytracer;
  else if (Opt.Workload == "kv-serve")
    Cfg.Kind = WorkloadKind::KVServe;
  else
    usage(("unknown workload " + Opt.Workload).c_str());
  Cfg.Seed = Opt.Seed;
  Cfg.Sz = Opt.Tiny ? Sizes::tiny() : Sizes::full();
  const unsigned Cpus = onlineCpus();
  Cfg.VProcs = std::min(Cpus, 4u);
  if (Cfg.VProcs < 2)
    Cfg.VProcs = 2; // serving needs a worker and a generator

  Topology Topo = Topology::host();
  const int W = static_cast<int>(Cfg.Kind);
  std::printf(
      "host: {\"topology\": \"%s\", \"nodes\": %u, \"cores\": %u, "
      "\"cpu_model\": \"%s\", \"llc\": \"%s\", \"nproc\": %u, "
      "\"source\": \"%s\", \"build_type\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"vprocs\": %u, \"serving_workers\": %u, "
      "\"open_loop_rps\": %s, \"slo_us\": %s, \"size\": \"%s\"}\n",
      jsonEscape(Topo.name()).c_str(), Topo.numNodes(), Topo.numCores(),
      jsonEscape(cpuModel()).c_str(), jsonEscape(llcSize()).c_str(), Cpus,
      jsonEscape(Opt.SourceId).c_str(), HOSTBENCH_BUILD_TYPE,
      Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
      Cfg.VProcs, servingWorkers(Cfg.VProcs),
      number(Cfg.Sz.OpenRate[W]).c_str(),
      number(static_cast<double>(Cfg.Sz.SloNanos) / 1e3).c_str(),
      Opt.Tiny ? "tiny" : "full");
  std::fflush(stdout);

  Tracer::setKeepEvents(Opt.CheckSpans);
  std::vector<RoundResult> Rounds;
  const uint64_t Start = nowNanos();
  for (;;) {
    // In a traced run each traced round is followed by an untraced one
    // on the same inputs, so the trace's own cost can be measured.
    const bool Traced = Opt.Trace && Rounds.size() % 2 == 0;
    Cfg.InputIndex =
        static_cast<unsigned>(Opt.Trace ? Rounds.size() / 2 : Rounds.size());
    Tracer::setEnabled(Traced);
    uint64_t R0 = nowNanos();
    RoundResult R = runRound(Cfg, Topo);
    Tracer::setEnabled(false);
    R.Traced = Traced;
    std::printf("round %zu%s: setup %.4f s, wall %.4f s, serial %.4f s, "
                "rss %.1f MB, capacity %.0f rps, slo %.2f%%, p50 %.1f us "
                "(%.2f s)\n",
                Rounds.size(), Traced ? " traced" : "", R.SetupS, R.WallS,
                R.SerialWallS, R.PeakRssMb, R.CapacityRps, R.SloPct, R.P50Us,
                static_cast<double>(nowNanos() - R0) / 1e9);
    std::fflush(stdout);
    Rounds.push_back(std::move(R));
    // A traced run ends on a whole traced/untraced pair.
    if (Opt.Trace && Rounds.size() % 2)
      continue;
    double Elapsed = static_cast<double>(nowNanos() - Start) / 1e9;
    double PerStep = (Opt.Trace ? 2 : 1) * Elapsed /
                     static_cast<double>(Rounds.size());
    if (Opt.Rounds ? Rounds.size() >= Opt.Rounds
                   : Elapsed + PerStep > Opt.Seconds && Rounds.size() >= 2)
      break;
  }

  // Failure accounting per phase, over every round.
  std::map<std::string, Phase> Phases;
  std::vector<std::string> Errors;
  for (const RoundResult &R : Rounds) {
    for (const auto &[Name, P] : R.Phases) {
      Phases[Name].Attempted += P.Attempted;
      Phases[Name].Failed += P.Failed;
    }
    Errors.insert(Errors.end(), R.Errors.begin(), R.Errors.end());
  }
  uint64_t Attempted = 0, Failed = 0;
  std::printf("phases:\n");
  for (const auto &[Name, P] : Phases) {
    std::printf("  %-8s attempted %llu failed %llu\n", Name.c_str(),
                static_cast<unsigned long long>(P.Attempted),
                static_cast<unsigned long long>(P.Failed));
    Attempted += P.Attempted;
    Failed += P.Failed;
  }
  if (Opt.CheckSpans) {
    std::vector<std::string> SpanErrors = checkSpanEvents();
    Errors.insert(Errors.end(), SpanErrors.begin(), SpanErrors.end());
  }
  for (const std::string &E : Errors)
    std::fprintf(stderr, "hostbench: check failed: %s\n", E.c_str());

  std::vector<Metric> Metrics = Opt.Trace
                                    ? perLayer(Rounds, Topo.numNodes())
                                    : endToEnd(Rounds);
  if (Opt.Trace) {
    printSpanTable();
    std::printf("per-layer (medians over %zu rounds):\n", Rounds.size());
    for (const Metric &M : Metrics)
      std::printf("  %-28s %14.4f %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  }

  const bool Correct = Errors.empty() && Failed == 0;
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted);
  Json += ", \"failed\": " + std::to_string(Failed);
  Json += ", \"metrics\": {";
  for (std::size_t I = 0; I < Metrics.size(); ++I) {
    if (I)
      Json += ", ";
    Json += "\"" + Metrics[I].Name + "\": {\"value\": " +
            number(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit +
            "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
