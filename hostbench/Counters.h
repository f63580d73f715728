//===- hostbench/Counters.h - library counter snapshots -------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat snapshot of the library's public counters (aggregated per-vproc
/// GCStats and SchedStats, the world's global-cycle counts, the chunk
/// manager and the traffic matrix), the difference of two snapshots, and
/// the counter identities every run must satisfy.
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_COUNTERS_H
#define HOSTBENCH_COUNTERS_H

#include "runtime/Runtime.h"

#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

struct Counters {
  // GCStats, summed over vprocs. *Nanos are pause totals; *MaxNanos are
  // the longest single pause (a snapshot difference keeps the later max).
  uint64_t MinorCount = 0, MinorNanos = 0, MinorMaxNanos = 0, MinorCopied = 0;
  uint64_t MajorCount = 0, MajorNanos = 0, MajorPromoted = 0;
  uint64_t PromoteCount = 0, PromoteNanos = 0, PromoteBytes = 0;
  uint64_t GlobalSamples = 0, GlobalNanos = 0, GlobalMaxNanos = 0;
  uint64_t GlobalRendezvousNanos = 0, GlobalMarkNanos = 0,
           GlobalSweepNanos = 0, GlobalCopied = 0;
  uint64_t MaxPauseNanos = 0;
  uint64_t AllocLocal = 0, AllocGlobal = 0;
  uint64_t SizeClassHits = 0, SizeClassMisses = 0;
  uint64_t ChunkLocal = 0, ChunkSteals = 0, ChunkFresh = 0;

  // World and chunk-manager counters.
  uint64_t Cycles = 0, ConcurrentCycles = 0;
  uint64_t ChunksCreated = 0;
  uint64_t CMLocal = 0, CMSteals = 0, CMFresh = 0;
  uint64_t TrafficBytes = 0, TrafficRemoteBytes = 0;

  // SchedStats, summed over vprocs.
  manti::SchedStats Sched;

  /// Reads every counter of \p RT. Call while its vprocs are quiescent.
  static Counters read(manti::Runtime &RT);

  /// Zeroes every vproc's GCStats of \p RT and \returns the snapshot to
  /// diff later counters against. GCStats pause maxima cannot be
  /// differenced, so this is how a region's maxima cover that region
  /// only. Call while the vprocs are quiescent.
  static Counters restart(manti::Runtime &RT);

  /// \returns this minus \p Before (maxima keep this snapshot's value).
  Counters since(const Counters &Before) const;

  /// Appends a message to \p Errors for every identity that does not
  /// hold. \p Concurrent says whether the runtime ran the concurrent
  /// global collector.
  void checkIdentities(bool Concurrent, const std::string &Where,
                       std::vector<std::string> &Errors) const;
};

} // namespace hostbench

#endif // HOSTBENCH_COUNTERS_H
