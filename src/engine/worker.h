// Worker: one machine of the threaded execution engine.
//
// Owns the simulated devices (block-store disks, a share of the fabric), the
// per-resource schedulers, and the Local DAG Scheduler that feeds them. The driver
// (api/context.h) decomposes multitasks into monotask DAGs and hands them to
// workers; everything below that line runs on the schedulers' threads.
#ifndef MONOTASKS_SRC_ENGINE_WORKER_H_
#define MONOTASKS_SRC_ENGINE_WORKER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/block_device.h"
#include "src/engine/dag_scheduler.h"
#include "src/engine/fabric.h"
#include "src/engine/resource_schedulers.h"

namespace monotasks {

// How the engine executes a stage's multitasks.
enum class ExecutionMode {
  // The paper's architecture: each multitask is decomposed into single-resource
  // monotasks scheduled by the per-resource schedulers.
  kMonotasks,
  // The baseline architecture: each multitask runs whole on one slot thread (slots =
  // cores), performing its own reads, compute, and writes — so concurrent tasks
  // contend on the devices unscheduled, exactly like today's frameworks.
  kTaskThreads,
};

struct EngineConfig {
  int num_workers = 2;
  int cores_per_worker = 2;
  int disks_per_worker = 1;
  ExecutionMode mode = ExecutionMode::kMonotasks;
  monoutil::BytesPerSecond disk_bandwidth = monoutil::MiBps(90);
  monoutil::BytesPerSecond nic_bandwidth = monoutil::Gbps(1);
  // Disk head-contention factor: an operation overlapping n-1 others is charged
  // (1 + alpha*(n-1))x its bytes. The monotasks disk scheduler serializes operations
  // and so never pays it; task threads do.
  double disk_seek_alpha = 0.35;
  // Wall-clock acceleration of the simulated devices: with time_scale = 50, one
  // "device second" takes 20 ms of real time. Relative timing is preserved.
  double time_scale = 50.0;
};

// Aggregate per-resource accounting for one worker — the engine-level counterpart
// of the paper's built-in instrumentation.
struct WorkerCounters {
  std::atomic<double> cpu_seconds{0};
  std::atomic<double> disk_seconds{0};
  std::atomic<double> network_seconds{0};
  std::atomic<int> cpu_count{0};
  std::atomic<int> disk_count{0};
  std::atomic<int> network_count{0};
};

class Worker {
 public:
  Worker(int id, const EngineConfig& config, InProcessFabric* fabric);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  // Joins every scheduler's threads (idempotent). Called by the destructor, but
  // a multi-worker owner must call it on ALL workers before destroying ANY of
  // them: a completion callback running on one worker's scheduler thread can
  // still be inside Submit()/notify on another worker's scheduler (shuffle
  // serves), and pthread_cond_signal racing pthread_cond_destroy is undefined.
  void Shutdown();

  int id() const { return id_; }
  const EngineConfig& config() const { return config_; }

  LocalDagScheduler& dag_scheduler() { return *dag_; }
  SimulatedBlockDevice& disk(int index) { return *disks_[static_cast<size_t>(index)]; }
  int num_disks() const { return static_cast<int>(disks_.size()); }
  InProcessFabric& fabric() { return *fabric_; }

  // §3.4: multitasks assigned concurrently = sum of per-resource concurrency + 1.
  int MultitaskLimit() const;

  // Submits a standalone monotask (a one-node DAG); `done` fires on a scheduler
  // thread when it completes. Used for cross-worker work such as shuffle-serve
  // reads issued on behalf of a remote multitask.
  void SubmitDetached(std::unique_ptr<Monotask> task, std::function<void()> done);

  // Round-robin placement for write monotasks.
  int PickWriteDisk();

  const WorkerCounters& counters() const { return counters_; }

 private:
  void Route(Monotask* task);
  void OnComplete(Monotask* task, double service_seconds);

  // Thread safety: everything below is either immutable after construction or
  // atomic; all mutex-protected state lives inside the owned schedulers,
  // devices, and the DAG scheduler (annotated in their own headers).
  int id_;
  EngineConfig config_;
  InProcessFabric* fabric_;
  std::vector<std::unique_ptr<SimulatedBlockDevice>> disks_;
  std::unique_ptr<ResourceScheduler> cpu_;
  std::vector<std::unique_ptr<ResourceScheduler>> disk_schedulers_;
  std::unique_ptr<ResourceScheduler> network_;
  std::unique_ptr<LocalDagScheduler> dag_;
  std::atomic<int> next_write_disk_{0};
  WorkerCounters counters_;
};

}  // namespace monotasks

#endif  // MONOTASKS_SRC_ENGINE_WORKER_H_
