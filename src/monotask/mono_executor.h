// MonotasksExecutorSim: the paper's architecture (§3).
//
// Multitasks arriving on a worker are decomposed into a DAG of monotasks that each use
// exactly one resource. A Local DAG Scheduler (here: the per-multitask MonoMultitaskSim
// state machine) tracks dependencies and submits each monotask to the machine's
// per-resource scheduler once its dependencies complete. The job scheduler assigns
// each machine enough multitasks to saturate every resource: the sum of each
// scheduler's maximum concurrency, plus one (§3.4).
//
// Key behavioural differences from the Spark baseline, all from the paper:
//   * no fine-grained pipelining inside a multitask — input is fully buffered in
//     memory before compute begins, output fully buffered before the write begins;
//   * disk writes are flushed (never left in the OS buffer cache), so disk monotask
//     times are meaningful (§3.1);
//   * one monotask per HDD at a time -> no seek thrash; the flash scheduler allows a
//     configurable number of outstanding monotasks;
//   * shuffle fetches are admitted receiver-side, at most four multitasks' worth at a
//     time, and shuffle data is always read back from disk on the serving machine;
//   * buffered task data is measured (peak_buffered_bytes), never regulated: as in
//     the paper's implementation, memory pressure does not reorder disk work (§3.5).
//
// The multitask lifecycle, buffered-byte accounting and disk round-robins are
// ExecutorSim's (executor.h); this executor supplies the §3.4 multitask limit and
// MonoMultitaskSim, and keeps the monotasks policy: the per-resource schedulers,
// the load-aware write choice and the receiver-side network admission.
#ifndef MONOTASKS_SRC_MONOTASK_MONO_EXECUTOR_H_
#define MONOTASKS_SRC_MONOTASK_MONO_EXECUTOR_H_

#include <memory>
#include <vector>

#include "src/framework/executor.h"
#include "src/monotask/resource_schedulers.h"

namespace monosim {

struct MonoConfig {
  // Outstanding monotasks per flash disk: flash reaches peak throughput with ~4
  // outstanding (an HDD always runs one, kHddOutstanding).
  int ssd_outstanding = 4;
  // Receiver-side limit on multitasks with outstanding shuffle requests.
  int network_multitask_limit = 4;
  // §8 "Disk scheduling" extension: route disk-write monotasks to the disk with the
  // shortest write queue instead of round-robin. Off by default (paper behaviour).
  bool load_aware_disk_writes = false;
  // Ablation: replace the disk scheduler's per-phase round-robin with a single FIFO
  // queue (reproduces the convoy effect §3.3 argues against). Off by default.
  bool fifo_disk_queues = false;
};

class MonotasksExecutorSim final : public ExecutorSim {
 public:
  MonotasksExecutorSim(Simulation* sim, ClusterSim* cluster, TaskPool* pool,
                       MonoConfig config = {});

  void set_monotask_log(MonotaskLog* log) override { monotask_log_ = log; }
  MonotaskLog* monotask_log() const { return monotask_log_; }

  const MonoConfig& config() const { return config_; }

  // Maximum multitasks assigned concurrently to `machine` (§3.4).
  int MultitaskLimit(int machine) const override;

  // Scheduler access (used by MonoMultitaskSim and by tests).
  SlotSchedulerSim& cpu_scheduler(int machine);
  SlotSchedulerSim& disk_scheduler(int machine, int disk);
  NetworkSchedulerSim& network_scheduler(int machine);
  int num_disks(int machine) const;

  // Picks the disk for a write monotask: round-robin, or the shortest write queue
  // when load-aware writes are enabled.
  int PickWriteDisk(int machine) override;

  // Enables queue-length tracing on every per-resource scheduler (§3.1: contention
  // is visible as queue length). Call before submitting jobs.
  void EnableQueueTraces();

  // Invariant auditing (audit.h): the base's multitask bookkeeping, plus at
  // drain every scheduler queue is empty and nothing runs on any scheduler.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

 private:
  friend class MonoMultitaskSim;

  struct WorkerState {
    std::unique_ptr<SlotSchedulerSim> cpu;
    std::vector<std::unique_ptr<SlotSchedulerSim>> disks;
    std::unique_ptr<NetworkSchedulerSim> network;
  };

  std::unique_ptr<MultitaskSim> MakeTask(TaskAssignment assignment,
                                         uint64_t dispatch_id) override;

  MonoConfig config_;
  std::vector<WorkerState> workers_;
  MonotaskLog* monotask_log_ = nullptr;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_MONOTASK_MONO_EXECUTOR_H_
