// Monotask: the engine's unit of scheduling — work that uses exactly one resource.
//
// A monotask is a blocking Run() executed on a thread owned by the matching
// per-resource scheduler. Dependencies are tracked by the LocalDagScheduler: a
// monotask is submitted to its scheduler only when its dependency count reaches
// zero, so it never blocks on another monotask while holding the resource (§3.1
// "monotasks execute in isolation").
#ifndef MONOTASKS_SRC_ENGINE_MONOTASK_H_
#define MONOTASKS_SRC_ENGINE_MONOTASK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/phase_queue.h"

namespace monotasks {

enum class ResourceType {
  kCpu,
  kDisk,
  kNetwork,
};

class Monotask {
 public:
  using Id = uint64_t;

  Monotask(ResourceType resource, std::string label);
  virtual ~Monotask() = default;

  Monotask(const Monotask&) = delete;
  Monotask& operator=(const Monotask&) = delete;

  // Executes the work on the resource's thread. Blocking; must use only this
  // monotask's resource.
  virtual void Run() = 0;

  Id id() const { return id_; }
  ResourceType resource() const { return resource_; }
  const std::string& label() const { return label_; }

  // Lifecycle stamps (engine telemetry; only stamped while telemetry is on):
  // when the DAG scheduler registered the task and when it was handed to its
  // resource scheduler. registered -> submitted is dependency-blocked time,
  // submitted -> pickup is queue wait, pickup -> done is service. A
  // default-constructed (epoch) stamp means "not recorded".
  std::chrono::steady_clock::time_point registered_at{};
  std::chrono::steady_clock::time_point submitted_at{};

  // Disk monotasks: which disk and which phase queue; the disk scheduler
  // round-robins across phases to avoid the convoy effect (§3.3). Set by the
  // creator.
  int disk_index = 0;
  monoutil::DiskPhase disk_phase = monoutil::DiskPhase::kRead;

 private:
  static std::atomic<Id>& Counter();

  Id id_;
  ResourceType resource_;
  std::string label_;
};

// A monotask wrapping a closure; the common case. The closure runs on the resource
// scheduler's thread.
class FunctionMonotask : public Monotask {
 public:
  FunctionMonotask(ResourceType resource, std::string label, std::function<void()> fn)
      : Monotask(resource, std::move(label)), fn_(std::move(fn)) {}

  void Run() override { fn_(); }

 private:
  std::function<void()> fn_;
};

}  // namespace monotasks

#endif  // MONOTASKS_SRC_ENGINE_MONOTASK_H_
