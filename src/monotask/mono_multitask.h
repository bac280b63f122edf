// MonoMultitaskSim: one multitask decomposed into its monotask DAG (§3.2, Fig 4).
//
// The DAG for a map-like multitask:
//
//   disk-read(input block) -> compute -> disk-write(shuffle | output)
//
// and for a reduce-like multitask:
//
//   { per remote machine: request -> serve disk-read (remote) -> network flow }  --+
//   { local shuffle portion: disk-read                                        }  --+-> compute -> disk-write
//
// This class plays the role of the paper's Local DAG Scheduler for its multitask: it
// submits each monotask to the right per-resource scheduler only when the monotask's
// dependencies have completed, and accumulates per-monotask service times into the
// stage's metrics.
#ifndef MONOTASKS_SRC_MONOTASK_MONO_MULTITASK_H_
#define MONOTASKS_SRC_MONOTASK_MONO_MULTITASK_H_

#include <string>

#include "src/common/domain.h"
#include "src/framework/monotask_log.h"
#include "src/framework/task.h"

namespace monosim {

class MonotasksExecutorSim;

class MonoMultitaskSim {
 public:
  // Deliberately NOT MONO_SIM_OWNED: the executor destroys the multitask when
  // it completes, mid-run, so a `this` capture scheduled from here may only
  // reach APIs whose callbacks are guaranteed to fire before Finish() runs.
  MONO_DOMAIN("machine");

  // `dispatch_id` is the executor-assigned stable identity of this dispatch
  // (the key of the executor's running registry; never a heap address).
  MonoMultitaskSim(MonotasksExecutorSim* executor, TaskAssignment assignment,
                   uint64_t dispatch_id);

  MonoMultitaskSim(const MonoMultitaskSim&) = delete;
  MonoMultitaskSim& operator=(const MonoMultitaskSim&) = delete;

  // Begins execution: enqueues the input-phase monotasks.
  void Start();

  uint64_t dispatch_id() const { return dispatch_id_; }
  const TaskAssignment& assignment() const { return assignment_; }

  // When the multitask was dispatched (set at construction).
  monoutil::SimTime start_time() const { return start_time_; }

 private:
  void StartInputPhase();
  void OnInputPieceDone();
  void StartComputePhase();
  void StartWritePhase();
  void Finish();

  // Records a completed monotask span ending now on `machine`'s lane group
  // `lane_base`, tagged with this multitask's stage label. One branch when
  // tracing is off.
  void TraceSpan(int machine, const std::string& lane_base, const char* name,
                 const char* category, monoutil::SimTime start);

  // Appends one lifecycle record (monotask_log.h) for a monotask of `phase`
  // that finished now on `machine` after `service` of resource use and `wait`
  // in the scheduler queue. No-op without an attached log.
  void LogMonotask(MonoResource resource, const char* phase, int machine,
                   monoutil::SimTime service, monoutil::SimTime wait);

  MonotasksExecutorSim* executor_;
  TaskAssignment assignment_;
  uint64_t dispatch_id_;
  monoutil::SimTime start_time_;

  int pending_input_pieces_ = 0;
  bool network_slot_held_ = false;
  monoutil::Bytes write_total_;
  bool write_is_io_ = false;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_MONOTASK_MONO_MULTITASK_H_
