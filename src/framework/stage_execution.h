// StageExecution: runtime bookkeeping for one stage of one job.
//
// Owns the per-task parameters (sizes, preferred machines), hands tasks out with
// locality preference, accumulates the stage's metrics, and fires a completion
// callback when the last task finishes. Shared by both executors.
#ifndef MONOTASKS_SRC_FRAMEWORK_STAGE_EXECUTION_H_
#define MONOTASKS_SRC_FRAMEWORK_STAGE_EXECUTION_H_

#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/framework/job_spec.h"
#include "src/framework/metrics.h"
#include "src/framework/task.h"
#include "src/storage/dfs.h"

namespace monosim {

class StageExecution {
 public:
  // `prev` is the previous stage of the same job (nullptr for the first); it must
  // have completed when this stage reads shuffle data. `rng` drives task jitter.
  StageExecution(const JobSpec& job, int stage_index, int num_machines, const DfsSim* dfs,
                 const StageExecution* prev, monoutil::Rng* rng);

  StageExecution(const StageExecution&) = delete;
  StageExecution& operator=(const StageExecution&) = delete;

  const StageSpec& spec() const { return spec_; }
  const StageExecution* prev() const { return prev_; }
  int num_machines() const { return num_machines_; }

  // ---- Task handout ----

  // Returns the next task for `machine` (preferring tasks whose input is local),
  // or nullopt if no tasks remain unassigned.
  std::optional<TaskAssignment> TakeTask(int machine);

  // Number of tasks not yet handed out.
  int unassigned_tasks() const { return unassigned_; }

  // ---- Executor callbacks ----

  void set_on_complete(std::function<void()> on_complete) {
    on_complete_ = std::move(on_complete);
  }

  // Records the stage activation time (set once by the driver).
  void Activate(monoutil::SimTime now);
  bool activated() const { return activated_; }

  void OnTaskStarted(int task_index, monoutil::SimTime now);
  // Marks a task finished; fires the completion callback after the last one.
  void OnTaskFinished(int task_index, monoutil::SimTime now);
  bool AllTasksFinished() const { return finished_ == spec_.num_tasks; }

  // ---- Shuffle bookkeeping ----

  // Map-side executors report where they wrote shuffle data.
  void RecordShuffleWrite(int machine, monoutil::Bytes bytes);
  // Bytes of this stage's shuffle output stored on each machine.
  const std::vector<monoutil::Bytes>& shuffle_bytes_per_machine() const {
    return shuffle_on_machine_;
  }

  // ---- Metrics ----

  StageResult& result() { return result_; }
  const StageResult& result() const { return result_; }

  // Trace attribution label ("mono:map"), set by the driver at activation; every
  // span the executors emit for this stage's work carries it.
  void set_trace_label(std::string label) { trace_label_ = std::move(label); }
  const std::string& trace_label() const { return trace_label_; }

 private:
  struct TaskParams {
    // DFS input replicas (empty: no locality preference). Any replica holder can
    // read the block locally; a non-holder reads remotely from the primary. A
    // view into the DfsSim's file, which outlives the job.
    std::span<const DfsReplica> replicas;
    monoutil::Bytes input_bytes;
    double cpu_seconds = 0.0;
    double deser_cpu_seconds = 0.0;
    double decompress_cpu_seconds = 0.0;
    monoutil::Bytes shuffle_write_bytes;
    monoutil::Bytes output_bytes;
  };

  TaskAssignment MakeAssignment(int task_index, int machine) const;

  StageSpec spec_;
  const StageExecution* prev_;
  int num_machines_;

  std::vector<TaskParams> tasks_;
  std::vector<bool> taken_;
  std::vector<std::deque<int>> local_queue_;  // Per-machine preferred task indices.
  std::deque<int> any_queue_;                 // Tasks with no locality preference.
  int unassigned_ = 0;
  int finished_ = 0;
  bool activated_ = false;

  std::vector<monoutil::SimTime> task_start_;
  std::vector<monoutil::Bytes> shuffle_on_machine_;
  std::function<void()> on_complete_;
  StageResult result_;
  std::string trace_label_;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_FRAMEWORK_STAGE_EXECUTION_H_
