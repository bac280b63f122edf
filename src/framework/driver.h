// JobDriver: the central job scheduler (the paper's unmodified Spark driver role).
//
// Walks each submitted job through its stages with a barrier between stages, registers
// runnable stages with the TaskPool, notifies the executor, and assembles the
// JobResult (filling per-stage utilization summaries from cluster traces when
// tracing is enabled). Several jobs may be in flight at once; they share the pool.
#ifndef MONOTASKS_SRC_FRAMEWORK_DRIVER_H_
#define MONOTASKS_SRC_FRAMEWORK_DRIVER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/machine.h"
#include "src/common/rng.h"
#include "src/common/tracing/tracer.h"
#include "src/framework/executor.h"
#include "src/framework/job_spec.h"
#include "src/framework/metrics.h"
#include "src/framework/stage_execution.h"
#include "src/framework/task_pool.h"
#include "src/simcore/simulation.h"
#include "src/storage/dfs.h"

namespace monosim {

class JobDriver {
 public:
  JobDriver(Simulation* sim, ClusterSim* cluster, DfsSim* dfs, TaskPool* pool);

  JobDriver(const JobDriver&) = delete;
  JobDriver& operator=(const JobDriver&) = delete;

  // Must be set before the first SubmitJob.
  void set_executor(ExecutorSim* executor) { executor_ = executor; }

  // mono_lint: allow(std-function-hot-path) -- one per submitted job, fired once at its end.
  using DoneCallback = std::function<void(JobResult)>;

  // Submits a job; stages run in order with a barrier in between. `done` fires (as a
  // simulation event) when the last stage completes.
  void SubmitJob(JobSpec spec, DoneCallback done);

  // Convenience: submits `spec` and runs the simulation until it completes.
  JobResult RunJob(JobSpec spec);

 private:
  struct JobState {
    JobSpec spec;
    DoneCallback done;
    monoutil::Rng rng{1};
    std::vector<std::unique_ptr<StageExecution>> stages;
    size_t next_stage = 0;
    JobResult result;
    ClusterSim::UsageCounters stage_start_counters;
    // Driver-timeline trace track for this job; stage spans nest inside the job
    // span on it. Invalid when tracing was off at submit.
    monotrace::TrackRef trace_track;
  };

  void ActivateNextStage(JobState* job);
  void OnStageComplete(JobState* job, StageExecution* stage);
  void FillUtilization(StageResult* result) const;

  Simulation* sim_;
  ClusterSim* cluster_;
  DfsSim* dfs_;
  TaskPool* pool_;
  ExecutorSim* executor_ = nullptr;
  std::vector<std::unique_ptr<JobState>> jobs_;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_FRAMEWORK_DRIVER_H_
