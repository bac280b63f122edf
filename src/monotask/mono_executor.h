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
#ifndef MONOTASKS_SRC_MONOTASK_MONO_EXECUTOR_H_
#define MONOTASKS_SRC_MONOTASK_MONO_EXECUTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/machine.h"
#include "src/framework/executor.h"
#include "src/framework/task.h"
#include "src/framework/task_pool.h"
#include "src/monotask/resource_schedulers.h"
#include "src/simcore/audit.h"
#include "src/simcore/simulation.h"

namespace monosim {

class MonoMultitaskSim;

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

class MonotasksExecutorSim : public ExecutorSim, public Auditable {
 public:
  // The executor and its per-resource schedulers model machine-side work. It
  // outlives the simulation run (tests/benches keep it alive past Run()), so
  // `this` captures into monotask completion plumbing cannot dangle.
  MONO_SIM_OWNED;

  MonotasksExecutorSim(Simulation* sim, ClusterSim* cluster, TaskPool* pool,
                       MonoConfig config = {});
  ~MonotasksExecutorSim() override;

  void OnWorkAvailable() override;
  monoutil::Bytes peak_buffered_bytes() const override { return peak_buffered_; }
  const char* trace_name() const override { return "mono"; }
  void set_monotask_log(MonotaskLog* log) override { monotask_log_ = log; }
  MonotaskLog* monotask_log() const { return monotask_log_; }

  const MonoConfig& config() const { return config_; }

  // Maximum multitasks assigned concurrently to `machine` (§3.4).
  int MultitaskLimit(int machine) const;

  // Scheduler access (used by MonoMultitaskSim and by tests).
  SlotSchedulerSim& cpu_scheduler(int machine);
  SlotSchedulerSim& disk_scheduler(int machine, int disk);
  NetworkSchedulerSim& network_scheduler(int machine);
  int num_disks(int machine) const;

  // Picks the disk for a write monotask: round-robin, or the shortest write queue
  // when load-aware writes are enabled.
  int PickWriteDisk(int machine);
  // Picks the disk that serves a shuffle read (round-robin over the machine's disks).
  int PickServeDisk(int machine);

  void AddBuffered(int machine, monoutil::Bytes bytes);
  void RemoveBuffered(int machine, monoutil::Bytes bytes);

  // Trace process group for a machine's work under this executor.
  std::string TraceProcess(int machine) const {
    return "mono:m" + std::to_string(machine);
  }

  // Enables queue-length tracing on every per-resource scheduler (§3.1: contention
  // is visible as queue length). Call before submitting jobs.
  void EnableQueueTraces();

  // Invariant auditing (audit.h): per-machine multitask counts match the running
  // registry; at drain every scheduler queue is empty and no multitask is left.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

 private:
  friend class MonoMultitaskSim;

  struct WorkerState {
    std::unique_ptr<SlotSchedulerSim> cpu;
    std::vector<std::unique_ptr<SlotSchedulerSim>> disks;
    std::unique_ptr<NetworkSchedulerSim> network;
    int active_multitasks = 0;
    int next_write_disk = 0;
    int next_serve_disk = 0;
    monoutil::Bytes buffered_bytes;
  };

  void TryDispatch(int machine);
  bool DispatchOne(int machine);
  void OnMultitaskComplete(MonoMultitaskSim* multitask);

  Simulation* sim_;
  ClusterSim* cluster_;
  TaskPool* pool_;
  MonoConfig config_;

  std::vector<WorkerState> workers_;
  // Running registry keyed by the executor-assigned dispatch id, not the
  // multitask's address: no schedule decision may depend on heap layout
  // (determinism contract, DESIGN §10).
  std::unordered_map<uint64_t, std::unique_ptr<MonoMultitaskSim>> running_;
  uint64_t next_dispatch_id_ = 0;
  monoutil::Bytes peak_buffered_;
  MonotaskLog* monotask_log_ = nullptr;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_MONOTASK_MONO_EXECUTOR_H_
