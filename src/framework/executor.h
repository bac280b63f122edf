// ExecutorSim: the interface both execution architectures implement.
//
// The driver activates stages and registers them with the TaskPool; it then notifies
// the executor, which pulls tasks for machines with spare capacity and runs them —
// either as fine-grained pipelined multitasks (SparkExecutorSim) or decomposed into
// monotasks under per-resource schedulers (MonotasksExecutorSim).
#ifndef MONOTASKS_SRC_FRAMEWORK_EXECUTOR_H_
#define MONOTASKS_SRC_FRAMEWORK_EXECUTOR_H_

#include "src/common/units.h"

namespace monosim {

class MonotaskLog;

// Fixed cost of launching a multitask on a machine, the same under both
// architectures: Spark's task deserialization before the pipeline starts, and
// the leading compute monotask that deserializes the task description and
// builds the monotask DAG (Fig 4 caption).
inline constexpr monoutil::SimTime kTaskLaunchOverhead = monoutil::Millis(5);

class ExecutorSim {
 public:
  virtual ~ExecutorSim() = default;

  // Called whenever new tasks may be available in the pool (a stage was activated).
  // The executor should try to fill idle capacity on every machine.
  virtual void OnWorkAvailable() = 0;

  // Attaches a per-monotask lifecycle log (monotask_log.h); the executor does
  // not take ownership and `log` must outlive it. Executors without monotask
  // granularity (the Spark baseline) ignore it.
  virtual void set_monotask_log(MonotaskLog* log) { (void)log; }

  // Peak bytes of task data buffered in application memory on any single machine.
  virtual monoutil::Bytes peak_buffered_bytes() const { return monoutil::Bytes(); }

  // Short architecture tag used to prefix trace stage labels ("spark:map" vs
  // "mono:map"), so one trace file can hold both executors' runs of the same job.
  virtual const char* trace_name() const { return "executor"; }
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_FRAMEWORK_EXECUTOR_H_
