//===- hostbench/Trace.cpp ------------------------------------------------===//
//
// Part of the manticore-gc project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <memory>
#include <mutex>

using namespace hostbench;

std::atomic<bool> Tracer::Enabled{false};
bool Tracer::KeepEvents = false;

namespace {

std::mutex RegistryLock;
std::vector<std::unique_ptr<ThreadTrace>> Registry;
thread_local ThreadTrace *Local = nullptr;

} // namespace

const char *hostbench::spanName(SpanKind K) {
  switch (K) {
  case SpanKind::Round:
    return "round";
  case SpanKind::RuntimeCtor:
    return "runtime_ctor";
  case SpanKind::InputBuild:
    return "input_build";
  case SpanKind::RuntimeRun:
    return "runtime_run";
  case SpanKind::WorkloadEntry:
    return "workload_entry";
  case SpanKind::Verify:
    return "verify";
  case SpanKind::KVPut:
    return "kv_put";
  case SpanKind::KVGet:
    return "kv_get";
  case SpanKind::KVErase:
    return "kv_erase";
  case SpanKind::ChanSend:
    return "chan_send";
  case SpanKind::ChanRecv:
    return "chan_recv";
  case SpanKind::NumKinds:
    break;
  }
  return "?";
}

ThreadTrace &Tracer::local() {
  if (Local)
    return *Local;
  std::lock_guard<std::mutex> G(RegistryLock);
  Registry.push_back(std::make_unique<ThreadTrace>());
  Registry.back()->KeepEvents = KeepEvents;
  Local = Registry.back().get();
  return *Local;
}

std::array<SpanAgg, static_cast<std::size_t>(SpanKind::NumKinds)>
Tracer::merged() {
  std::lock_guard<std::mutex> G(RegistryLock);
  std::array<SpanAgg, static_cast<std::size_t>(SpanKind::NumKinds)> Out{};
  for (const auto &T : Registry)
    for (std::size_t I = 0; I < Out.size(); ++I)
      Out[I].merge(T->Agg[I]);
  return Out;
}

std::vector<std::vector<SpanEvent>> Tracer::events() {
  std::lock_guard<std::mutex> G(RegistryLock);
  std::vector<std::vector<SpanEvent>> Out;
  for (const auto &T : Registry)
    Out.push_back(T->Events);
  return Out;
}

bool Tracer::overflowed() {
  std::lock_guard<std::mutex> G(RegistryLock);
  for (const auto &T : Registry)
    if (T->Overflowed)
      return true;
  return false;
}
