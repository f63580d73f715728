//===- hostbench/Counters.cpp ---------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "Counters.h"

#include "gc/GlobalHeap.h"
#include "numa/TrafficMatrix.h"

using namespace hostbench;
using namespace manti;

Counters Counters::read(Runtime &RT) {
  GCWorld &W = RT.world();
  GCStats S = W.aggregateStats();
  Counters C;
  C.MinorCount = S.MinorPause.count();
  C.MinorNanos = S.MinorPause.totalNanos();
  C.MinorMaxNanos = S.MinorPause.maxNanos();
  C.MinorCopied = S.MinorBytesCopied;
  C.MajorCount = S.MajorPause.count();
  C.MajorNanos = S.MajorPause.totalNanos();
  C.MajorPromoted = S.MajorBytesPromoted;
  C.PromoteCount = S.PromoteCalls;
  C.PromoteNanos = S.PromotePause.totalNanos();
  C.PromoteBytes = S.PromoteBytes;
  C.GlobalSamples = S.GlobalPause.count();
  C.GlobalNanos = S.GlobalPause.totalNanos();
  C.GlobalMaxNanos = S.GlobalPause.maxNanos();
  C.GlobalRendezvousNanos = S.GlobalRendezvousPause.totalNanos();
  C.GlobalMarkNanos = S.GlobalMarkPause.totalNanos();
  C.GlobalSweepNanos = S.GlobalSweepPause.totalNanos();
  C.GlobalCopied = S.GlobalBytesCopied;
  C.MaxPauseNanos = S.maxPauseNanos();
  C.AllocLocal = S.BytesAllocatedLocal;
  C.AllocGlobal = S.BytesAllocatedGlobal;
  C.SizeClassHits = S.SizeClassHits;
  C.SizeClassMisses = S.SizeClassMisses;
  C.ChunkLocal = S.ChunkLocalReuses;
  C.ChunkSteals = S.ChunkCrossNodeSteals;
  C.ChunkFresh = S.ChunkFreshRegistrations;

  C.Cycles = W.globalGCCount();
  C.ConcurrentCycles = W.concurrentGCCount();
  ChunkManager &CM = W.chunks();
  C.ChunksCreated = CM.numChunksCreated();
  C.CMLocal = CM.nodeLocalReuses();
  C.CMSteals = CM.crossNodeSteals();
  C.CMFresh = CM.freshRegistrations();
  C.TrafficBytes = W.traffic().totalBytes();
  C.TrafficRemoteBytes = W.traffic().remoteBytes();

  C.Sched = RT.aggregateSchedStats();
  return C;
}

Counters Counters::restart(Runtime &RT) {
  for (unsigned I = 0; I < RT.numVProcs(); ++I)
    RT.world().heap(I).Stats = GCStats{};
  return read(RT);
}

Counters Counters::since(const Counters &B) const {
  Counters D = *this;
#define HOSTBENCH_SUB(F) D.F -= B.F
  HOSTBENCH_SUB(MinorCount);
  HOSTBENCH_SUB(MinorNanos);
  HOSTBENCH_SUB(MinorCopied);
  HOSTBENCH_SUB(MajorCount);
  HOSTBENCH_SUB(MajorNanos);
  HOSTBENCH_SUB(MajorPromoted);
  HOSTBENCH_SUB(PromoteCount);
  HOSTBENCH_SUB(PromoteNanos);
  HOSTBENCH_SUB(PromoteBytes);
  HOSTBENCH_SUB(GlobalSamples);
  HOSTBENCH_SUB(GlobalNanos);
  HOSTBENCH_SUB(GlobalRendezvousNanos);
  HOSTBENCH_SUB(GlobalMarkNanos);
  HOSTBENCH_SUB(GlobalSweepNanos);
  HOSTBENCH_SUB(GlobalCopied);
  HOSTBENCH_SUB(AllocLocal);
  HOSTBENCH_SUB(AllocGlobal);
  HOSTBENCH_SUB(SizeClassHits);
  HOSTBENCH_SUB(SizeClassMisses);
  HOSTBENCH_SUB(ChunkLocal);
  HOSTBENCH_SUB(ChunkSteals);
  HOSTBENCH_SUB(ChunkFresh);
  HOSTBENCH_SUB(Cycles);
  HOSTBENCH_SUB(ConcurrentCycles);
  HOSTBENCH_SUB(ChunksCreated);
  HOSTBENCH_SUB(CMLocal);
  HOSTBENCH_SUB(CMSteals);
  HOSTBENCH_SUB(CMFresh);
  HOSTBENCH_SUB(TrafficBytes);
  HOSTBENCH_SUB(TrafficRemoteBytes);
  HOSTBENCH_SUB(Sched.Spawns);
  HOSTBENCH_SUB(Sched.TasksStolen);
  HOSTBENCH_SUB(Sched.StealBatches);
  HOSTBENCH_SUB(Sched.TasksServiced);
  HOSTBENCH_SUB(Sched.FailedStealAttempts);
  HOSTBENCH_SUB(Sched.FailedStealRounds);
  HOSTBENCH_SUB(Sched.Parks);
  HOSTBENCH_SUB(Sched.ParkNanos);
  HOSTBENCH_SUB(Sched.RingsSent);
  HOSTBENCH_SUB(Sched.RingsWasted);
  HOSTBENCH_SUB(Sched.RingWakeups);
  HOSTBENCH_SUB(Sched.TasksShed);
#undef HOSTBENCH_SUB
  return D;
}

void Counters::checkIdentities(bool Concurrent, const std::string &Where,
                               std::vector<std::string> &Errors) const {
  auto Fail = [&](const std::string &What, uint64_t L, uint64_t R) {
    Errors.push_back(Where + ": " + What + " (" + std::to_string(L) +
                     " vs " + std::to_string(R) + ")");
  };
  // Every stolen task was handed over by exactly one victim.
  if (Sched.TasksStolen != Sched.TasksServiced)
    Fail("tasks stolen != tasks serviced", Sched.TasksStolen,
         Sched.TasksServiced);
  // The chunk manager and the per-vproc chunk-request tallies count the
  // same acquisitions from two sides.
  if (CMLocal != ChunkLocal)
    Fail("chunk manager node-local reuses != GCStats node-local requests",
         CMLocal, ChunkLocal);
  if (CMSteals != ChunkSteals)
    Fail("chunk manager cross-node steals != GCStats cross-node requests",
         CMSteals, ChunkSteals);
  if (CMFresh != ChunkFresh)
    Fail("chunk manager fresh mappings != GCStats fresh requests", CMFresh,
         ChunkFresh);
  // stw_fallbacks = cycles - concurrent cycles must be a real count, and
  // a stop-the-world-only runtime never completes a concurrent cycle.
  if (ConcurrentCycles > Cycles)
    Fail("concurrent cycles > completed cycles", ConcurrentCycles, Cycles);
  if (!Concurrent && ConcurrentCycles != 0)
    Fail("concurrent cycles without ConcurrentGlobal", ConcurrentCycles, 0);
}
