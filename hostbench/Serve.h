//===- hostbench/Serve.h - channel-driven request serving -----------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's serving harness. It follows runServing's flow
/// (service/TrafficGen.cpp) -- W node-affine workers each own a Channel,
/// W generators pace a buildSchedule() schedule and route each request
/// to its worker, generator 0 runs inline on vproc 0 -- but lives on the
/// benchmark side, so spans sit on every Channel::send/recv and on the
/// operation each request runs, and so the same harness serves any
/// request kind: KV operations, quicksort slices or raytracer row
/// segments.
///
/// Latency is measured from each request's *scheduled* time (open loop,
/// no coordinated omission) and split into generator lateness, queueing
/// (scheduled to dequeue) and service (dequeue to completion).
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_SERVE_H
#define HOSTBENCH_SERVE_H

#include "runtime/Runtime.h"
#include "service/LatencyRecorder.h"
#include "service/TrafficGen.h"

#include <cstdint>
#include <vector>

namespace hostbench {

/// Per-worker request tallies (owned by one worker thread).
struct OpTally {
  uint64_t Gets = 0, Puts = 0, Deletes = 0, Compute = 0;
};

/// A request kind the serving harness can execute.
class Service {
public:
  virtual ~Service() = default;
  /// Worker (= shard) that owns \p Key.
  virtual unsigned route(uint64_t Key) const = 0;
  /// Affinity hint for worker \p W's task.
  virtual manti::NodeId home(unsigned W) const {
    (void)W;
    return manti::Task::NoAffinity;
  }
  /// Runs \p R on \p VP (its worker's vproc). \returns false when the
  /// request's output failed its check.
  virtual bool execute(manti::VProc &VP, const manti::Request &R,
                       OpTally &Ops) = 0;
};

struct PhaseResult {
  uint64_t Scheduled = 0;
  uint64_t Failed = 0;     ///< failed checks or not completed exactly once
  uint64_t WithinSlo = 0;  ///< completed, passed, and within the SLO
  double Seconds = 0;      ///< epoch to last completion
  double P50Nanos = 0;     ///< exact median latency (not bucketed)
  manti::LatencyRecorder Latency; ///< scheduled -> completion
  manti::LatencyRecorder Queue;   ///< scheduled -> dequeue by the worker
  manti::LatencyRecorder Service; ///< dequeue -> completion
  manti::LatencyRecorder GenLate; ///< scheduled -> send started
  OpTally Ops;
};

/// Serves \p Schedules (one per generator; Workers = Schedules.size())
/// on \p RT, which needs at least 2 * Workers vprocs. A request counts
/// within the SLO when it completes, passes its check, and finishes at
/// most \p SloNanos after its scheduled time.
PhaseResult serve(manti::Runtime &RT, Service &Svc,
                  const std::vector<std::vector<manti::Request>> &Schedules,
                  uint64_t SloNanos);

} // namespace hostbench

#endif // HOSTBENCH_SERVE_H
