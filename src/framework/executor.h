// ExecutorSim: the worker side both execution architectures share.
//
// The driver activates stages and registers them with the TaskPool; it then notifies
// the executor, which pulls tasks for machines with spare capacity and runs them.
// As in the paper (§3.4), the two architectures differ only in what runs on a
// worker, so this base owns the whole multitask lifecycle: the breadth-first fill,
// dispatch with its launch overhead, the dispatch-id-keyed running registry, and
// completion (task span, completion counter, deferred destruction, stage
// notification, refill). It also keeps the per-machine state both need — active
// count, buffered task bytes and their peak, the write and serve disk
// round-robins — and audits that bookkeeping.
//
// A derived executor supplies its capacity per machine (MultitaskLimit) and how to
// build one of its multitasks (MakeTask): fine-grained pipelined tasks in slots
// (SparkExecutorSim) or monotask DAGs under per-resource schedulers
// (MonotasksExecutorSim). Each keeps its own resource policy.
#ifndef MONOTASKS_SRC_FRAMEWORK_EXECUTOR_H_
#define MONOTASKS_SRC_FRAMEWORK_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/machine.h"
#include "src/common/units.h"
#include "src/framework/task.h"
#include "src/framework/task_pool.h"
#include "src/simcore/audit.h"
#include "src/simcore/simulation.h"

namespace monotrace {
class MetricCounter;
}  // namespace monotrace

namespace monosim {

class MonotaskLog;

// Fixed cost of launching a multitask on a machine, the same under both
// architectures: Spark's task deserialization before the pipeline starts, and
// the leading compute monotask that deserializes the task description and
// builds the monotask DAG (Fig 4 caption).
inline constexpr monoutil::SimTime kTaskLaunchOverhead = monoutil::Millis(5);

// One dispatched multitask. The executor owns it from dispatch until the
// zero-delay event after its completion.
class MultitaskSim {
 public:
  MultitaskSim(const MultitaskSim&) = delete;
  MultitaskSim& operator=(const MultitaskSim&) = delete;
  virtual ~MultitaskSim() = default;

  // Begins execution once the launch overhead has passed: records the
  // ground-truth usage whose size is known up front, then Run()s. Shuffle fetch
  // I/O is accounted by the multitask per portion, since its disk/network split
  // depends on where the data lives.
  void Start();

  // The executor-assigned stable identity of this dispatch (the key of the
  // running registry; never a heap address).
  uint64_t dispatch_id() const { return dispatch_id_; }
  const TaskAssignment& assignment() const { return assignment_; }
  // When the multitask was dispatched.
  monoutil::SimTime start_time() const { return start_time_; }

 protected:
  MultitaskSim(TaskAssignment assignment, uint64_t dispatch_id, monoutil::SimTime now);

  // The architecture's execution; ends by reporting completion to its executor.
  virtual void Run() = 0;

  TaskAssignment assignment_;
  // Shuffle plus output bytes the multitask writes.
  monoutil::Bytes write_total_;
  // Whether those bytes reach a disk (everything but an in-memory shuffle).
  bool output_io_ = false;

 private:
  uint64_t dispatch_id_;
  monoutil::SimTime start_time_;
};

class ExecutorSim : public Auditable {
 public:
  // Machine-side execution; outlives the simulation run (tests/benches keep it
  // alive past Run()), so `this` captures into completion plumbing cannot
  // dangle.
  MONO_SIM_OWNED;

  // What tells one executor's output apart from the other's.
  struct Names {
    // Architecture tag prefixing trace stage labels and trace processes
    // ("spark:map", "spark:m3"), so one trace file can hold both executors'
    // runs of the same job.
    const char* trace;
    // Trace lane of the per-multitask spans.
    const char* task_lane;
    // Audit source of this executor's checks.
    const char* audit_source;
    // Counter incremented per completed multitask.
    const char* completed_metric;
  };

  ExecutorSim(Simulation* sim, ClusterSim* cluster, TaskPool* pool, Names names);
  ~ExecutorSim() override;

  ExecutorSim(const ExecutorSim&) = delete;
  ExecutorSim& operator=(const ExecutorSim&) = delete;

  // Called whenever new tasks may be available in the pool (a stage was
  // activated). Fills machines breadth-first (one multitask per machine per
  // round) so local tasks are claimed by their home machines before anyone
  // starts stealing — the behaviour a real driver gets from per-machine
  // resource offers.
  void OnWorkAvailable();

  // Maximum multitasks running concurrently on `machine`.
  virtual int MultitaskLimit(int machine) const = 0;

  // Attaches a per-monotask lifecycle log (monotask_log.h); the executor does
  // not take ownership and `log` must outlive it. Executors without monotask
  // granularity (the Spark baseline) ignore it.
  virtual void set_monotask_log(MonotaskLog* log) { (void)log; }

  // Peak bytes of task data buffered in application memory on any single machine.
  monoutil::Bytes peak_buffered_bytes() const { return peak_buffered_; }

  const char* trace_name() const { return names_.trace; }
  // Trace process group for a machine's work under this executor.
  std::string TraceProcess(int machine) const {
    return std::string(names_.trace) + ":m" + std::to_string(machine);
  }

  // Task data held in application memory on `machine`; traced as the
  // machine's "buffered-bytes" counter.
  void AddBuffered(int machine, monoutil::Bytes bytes);
  void RemoveBuffered(int machine, monoutil::Bytes bytes);

  // Picks the disk for a write: round-robin over the machine's disks.
  virtual int PickWriteDisk(int machine);
  // Picks the disk that serves a shuffle read (round-robin over the machine's disks).
  int PickServeDisk(int machine);

  // Invariant auditing (audit.h): per-machine active counts and buffered bytes
  // are never negative and the active counts match the running registry; at
  // drain no multitask is left and no buffered byte is still counted.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

 protected:
  // Builds the multitask for one assignment; Start() runs after the launch overhead.
  virtual std::unique_ptr<MultitaskSim> MakeTask(TaskAssignment assignment,
                                                 uint64_t dispatch_id) = 0;

  // Called by a multitask, from inside its own frames, when it has finished.
  void OnTaskComplete(MultitaskSim* task);

  Simulation* sim_;
  ClusterSim* cluster_;

 private:
  struct MachineState {
    int active = 0;
    int next_write_disk = 0;
    int next_serve_disk = 0;
    monoutil::Bytes buffered_bytes;
  };

  void TryDispatch(int machine);
  bool DispatchOne(int machine);
  void TraceBuffered(int machine) const;

  TaskPool* pool_;
  Names names_;
  // Resolved at the first completion, per instance, so the two executors keep
  // separate counters.
  monotrace::MetricCounter* completed_metric_ = nullptr;
  std::vector<MachineState> machines_;
  // Running registry keyed by the executor-assigned dispatch id, not the
  // multitask's address: no schedule decision may depend on heap layout
  // (determinism contract, DESIGN §10).
  std::unordered_map<uint64_t, std::unique_ptr<MultitaskSim>> running_;
  uint64_t next_dispatch_id_ = 0;
  monoutil::Bytes peak_buffered_;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_FRAMEWORK_EXECUTOR_H_
