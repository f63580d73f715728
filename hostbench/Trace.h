//===- hostbench/Trace.h - benchmark-side span recorder -------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark wraps around every public library call it
/// makes (runtime construction, input building, Runtime::run, workload
/// entry points, verification, KVStore and Channel operations). Each
/// thread keeps its own span stack and per-kind aggregates, so a span
/// costs two clock reads and no synchronization. Self time is the span's
/// duration minus the time covered by its direct children.
///
/// Tracing is off unless Tracer::setEnabled(true); a disabled Span is a
/// relaxed load and a branch.
///
//===----------------------------------------------------------------------===//

#ifndef HOSTBENCH_TRACE_H
#define HOSTBENCH_TRACE_H

#include "service/LatencyRecorder.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

namespace hostbench {

enum class SpanKind : uint8_t {
  Round,         ///< one measured round (root span on the main thread)
  RuntimeCtor,   ///< Runtime construction
  InputBuild,    ///< input generation, rope building, KV preload
  RuntimeRun,    ///< Runtime::run
  WorkloadEntry, ///< quicksort / runRaytracer / one service request
  Verify,        ///< output checks
  KVPut,
  KVGet,
  KVErase,
  ChanSend,
  ChanRecv,
  NumKinds
};

const char *spanName(SpanKind K);

inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-kind totals over every span of that kind.
struct SpanAgg {
  uint64_t Count = 0;
  uint64_t TotalNanos = 0;
  uint64_t SelfNanos = 0;
  manti::LatencyRecorder Durations;

  void merge(const SpanAgg &O) {
    Count += O.Count;
    TotalNanos += O.TotalNanos;
    SelfNanos += O.SelfNanos;
    Durations.merge(O.Durations);
  }
};

/// One finished span, kept only when event logging is on (self-test).
struct SpanEvent {
  SpanKind Kind;
  unsigned Depth;
  uint64_t Start, End, Self;
};

/// One thread's span stack and aggregates.
struct ThreadTrace {
  struct Frame {
    SpanKind Kind;
    uint64_t Start;
    uint64_t ChildNanos;
  };
  static constexpr unsigned MaxDepth = 32;
  std::array<Frame, MaxDepth> Stack{};
  unsigned Depth = 0;
  bool Overflowed = false;
  std::array<SpanAgg, static_cast<std::size_t>(SpanKind::NumKinds)> Agg{};
  bool KeepEvents = false;
  std::vector<SpanEvent> Events;
};

/// Process-wide span registry. Threads register lazily on their first
/// span; aggregates are merged once the threads are quiescent.
class Tracer {
public:
  static void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }
  static bool enabled() { return Enabled.load(std::memory_order_relaxed); }

  /// Keep every finished span as a SpanEvent (self-test only).
  static void setKeepEvents(bool On) { KeepEvents = On; }

  /// The calling thread's trace (registered on first use).
  static ThreadTrace &local();

  /// Sum of every registered thread's aggregates. Call while quiescent.
  static std::array<SpanAgg, static_cast<std::size_t>(SpanKind::NumKinds)>
  merged();

  /// Every thread's kept events. Call while quiescent.
  static std::vector<std::vector<SpanEvent>> events();

  /// True if any thread exceeded the span stack depth.
  static bool overflowed();

private:
  static std::atomic<bool> Enabled;
  static bool KeepEvents;
};

/// RAII span. Nests with the spans open on the same thread.
class Span {
public:
  explicit Span(SpanKind K) {
    if (!Tracer::enabled())
      return;
    T = &Tracer::local();
    if (T->Depth == ThreadTrace::MaxDepth) {
      T->Overflowed = true;
      T = nullptr;
      return;
    }
    T->Stack[T->Depth++] = {K, nowNanos(), 0};
  }
  ~Span() {
    if (!T)
      return;
    uint64_t End = nowNanos();
    ThreadTrace::Frame F = T->Stack[--T->Depth];
    uint64_t Dur = End - F.Start;
    uint64_t Self = Dur - F.ChildNanos;
    if (T->Depth > 0)
      T->Stack[T->Depth - 1].ChildNanos += Dur;
    SpanAgg &A = T->Agg[static_cast<std::size_t>(F.Kind)];
    A.Count++;
    A.TotalNanos += Dur;
    A.SelfNanos += Self;
    A.Durations.record(Dur);
    if (T->KeepEvents)
      T->Events.push_back({F.Kind, T->Depth, F.Start, End, Self});
  }

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  ThreadTrace *T = nullptr;
};

} // namespace hostbench

#endif // HOSTBENCH_TRACE_H
