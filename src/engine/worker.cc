#include "src/engine/worker.h"

#include "src/common/check.h"
#include "src/common/tracing/tracer.h"

namespace monotasks {
namespace {

// Outstanding monotasks per disk: the engine's block devices are HDD-like, so
// one at a time (§3.3).
constexpr int kDiskOutstanding = 1;
// Receiver-side limit on multitasks with outstanding fetches (§3.3).
constexpr int kNetworkMultitaskLimit = 4;

}  // namespace

Worker::Worker(int id, const EngineConfig& config, InProcessFabric* fabric)
    : id_(id), config_(config), fabric_(fabric) {
  MONO_CHECK(fabric_ != nullptr);
  MONO_CHECK(config.cores_per_worker >= 1);
  MONO_CHECK(config.disks_per_worker >= 1);

  for (int d = 0; d < config.disks_per_worker; ++d) {
    disks_.push_back(std::make_unique<SimulatedBlockDevice>(
        "worker" + std::to_string(id) + ".disk" + std::to_string(d),
        config.disk_bandwidth, config.time_scale, config.disk_seek_alpha));
  }
  auto on_complete = [this](Monotask* task, double service) {
    OnComplete(task, service);
  };
  cpu_ = std::make_unique<ResourceScheduler>(ResourceType::kCpu, config.cores_per_worker,
                                             on_complete);
  for (int d = 0; d < config.disks_per_worker; ++d) {
    disk_schedulers_.push_back(std::make_unique<ResourceScheduler>(
        ResourceType::kDisk, kDiskOutstanding, on_complete));
  }
  network_ = std::make_unique<ResourceScheduler>(
      ResourceType::kNetwork, kNetworkMultitaskLimit, on_complete);
  dag_ = std::make_unique<LocalDagScheduler>([this](Monotask* task) { Route(task); });
}

Worker::~Worker() { Shutdown(); }

void Worker::Shutdown() {
  // Join the CPU threads first — their completion callbacks are the ones most
  // often still inside Submit()/notify on the disk and network schedulers —
  // then the rest. After this, no thread of this worker can touch any
  // scheduler, so the member destructors run against quiescent objects.
  cpu_->Shutdown();
  network_->Shutdown();
  for (auto& disk : disk_schedulers_) {
    disk->Shutdown();
  }
}

void Worker::Route(Monotask* task) {
  switch (task->resource()) {
    case ResourceType::kCpu:
      cpu_->Submit(task);
      return;
    case ResourceType::kDisk:
      MONO_CHECK(task->disk_index >= 0 && task->disk_index < num_disks());
      disk_schedulers_[static_cast<size_t>(task->disk_index)]->Submit(task);
      return;
    case ResourceType::kNetwork:
      network_->Submit(task);
      return;
  }
  MONO_CHECK_MSG(false, "unknown resource type");
}

void Worker::OnComplete(Monotask* task, double service_seconds) {
  const char* category = "cpu";
  std::string lane = "cpu";
  switch (task->resource()) {
    case ResourceType::kCpu:
      counters_.cpu_seconds.fetch_add(service_seconds, std::memory_order_relaxed);
      ++counters_.cpu_count;
      break;
    case ResourceType::kDisk:
      counters_.disk_seconds.fetch_add(service_seconds, std::memory_order_relaxed);
      ++counters_.disk_count;
      category = "disk";
      lane = "disk" + std::to_string(task->disk_index);
      break;
    case ResourceType::kNetwork:
      counters_.network_seconds.fetch_add(service_seconds, std::memory_order_relaxed);
      ++counters_.network_count;
      category = "network";
      lane = "net";
      break;
  }
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    // Threaded engine: spans use the tracer's wall clock (seconds since tracer
    // creation), so they land on the same timeline as any other engine events.
    const double end = tracer->WallNow();
    tracer->CompleteOnLane("worker" + std::to_string(id_), lane, task->label(),
                           category, end - service_seconds, end);
  }
  dag_->OnMonotaskComplete(task);
}

void Worker::SubmitDetached(std::unique_ptr<Monotask> task, std::function<void()> done) {
  std::vector<std::unique_ptr<Monotask>> tasks;
  tasks.push_back(std::move(task));
  dag_->SubmitDag(std::move(tasks), {}, std::move(done));
}

int Worker::MultitaskLimit() const {
  int limit = config_.cores_per_worker;
  limit += config_.disks_per_worker * kDiskOutstanding;
  limit += kNetworkMultitaskLimit;
  return limit + 1;
}

int Worker::PickWriteDisk() {
  return next_write_disk_.fetch_add(1) % num_disks();
}

}  // namespace monotasks
