//===- hostbench/Workloads.h - the benchmark's three workloads ------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload runs in rounds. A round builds a fresh N-vproc runtime
/// and the inputs (setup), runs the timed region at N vprocs, serves the
/// workload's requests closed-loop (every request due at t=0: capacity)
/// and then open-loop (Poisson arrivals at a fixed absolute rate: SLO
/// share and median latency), and finally runs the same timed input on
/// a 1-vproc runtime (the serial baseline). Every output is checked.
///
///   quicksort  timed region: workloads::quicksort over the whole input
///              rope; requests sort one slice of the input.
///   raytracer  timed region: workloads::runRaytracer over the image;
///              requests render one row segment.
///   kv-serve   timed region: the closed-loop drain itself; requests are
///              KVStore get/put/erase; the serial baseline runs the same
///              requests on one vproc straight against a store.
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_WORKLOADS_H
#define HOSTBENCH_WORKLOADS_H

#include "Counters.h"
#include "Serve.h"

#include "numa/Topology.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

enum class WorkloadKind { Quicksort, Raytracer, KVServe };

/// Input sizes and serving rates. full() is the benchmark; tiny() is the
/// self-test's seconds-long variant of the same code paths.
struct Sizes {
  // quicksort
  int64_t QsElements;
  int64_t QsCutoff;
  int64_t QsSlice; ///< elements per sort request
  // raytracer
  int RtDim;
  int RtSegment;    ///< pixels per render request
  int RtSampleRows; ///< rows re-traced with tracePixel to check the image
  unsigned RtSetupReps; ///< set-ups per round (median reported)
  // kv-serve
  uint64_t KvKeySpace;
  uint32_t KvValueBytes;
  // serving phases (per workload: closed-loop requests per generator,
  // open-loop total rate and duration)
  uint64_t DrainPerGen[3];
  double OpenRate[3]; ///< requests/s over all generators
  double OpenSeconds;
  uint64_t SloNanos;

  static Sizes full();
  static Sizes tiny();
};

struct Phase {
  uint64_t Attempted = 0, Failed = 0;
};

/// Everything one round measured.
struct RoundResult {
  bool Traced = false;
  double SetupS = 0;      ///< N-vproc runtime construction + inputs
  double WallS = 0;       ///< timed region at N vprocs
  double SerialWallS = 0; ///< same input at 1 vproc
  double PeakRssMb = 0;   ///< peak RSS while the N-vproc runtime lived
  double CapacityRps = 0; ///< closed-loop throughput
  double SloPct = 0;      ///< open-loop share within the SLO
  double P50Us = 0;       ///< open-loop median latency
  double VerifyS = 0;     ///< output checks
  double VProcMs = 0;     ///< N x wall time of the timed region's runs
  uint64_t Items = 0;     ///< elements / pixels / requests in the region
  /// N-vproc runtime counters over the timed region's runs: the batch
  /// run (input rope build + entry point) for quicksort and raytracer,
  /// the closed- and open-loop runs for kv-serve.
  Counters N;
  /// N-vproc runtime counters over the closed- and open-loop runs.
  Counters Serving;
  PhaseResult Drain, Open;
  uint64_t Misses = 0, Corruptions = 0; ///< kv-serve, open-loop phase
  std::map<std::string, Phase> Phases;
  std::vector<std::string> Errors; ///< failed checks and identities
};

struct RunConfig {
  WorkloadKind Kind;
  uint64_t Seed;
  /// Rounds draw their inputs from (Seed, InputIndex), so one run's
  /// medians cover several inputs and do not hinge on a single one.
  unsigned InputIndex = 0;
  unsigned VProcs; ///< N = min(nproc, 4)
  Sizes Sz;
};

/// Runs one round. Spans are recorded when tracing is enabled.
RoundResult runRound(const RunConfig &Cfg, const manti::Topology &Topo);

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Serving workers for an N-vproc runtime (two workers and two
/// generators on four vprocs).
unsigned servingWorkers(unsigned VProcs);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_H
