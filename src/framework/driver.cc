#include "src/framework/driver.h"

#include <utility>

#include "src/common/check.h"

namespace monosim {

JobDriver::JobDriver(Simulation* sim, ClusterSim* cluster, DfsSim* dfs, TaskPool* pool)
    : sim_(sim), cluster_(cluster), dfs_(dfs), pool_(pool) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK(cluster_ != nullptr);
  MONO_CHECK(pool_ != nullptr);
}

void JobDriver::SubmitJob(JobSpec spec, DoneCallback done) {
  MONO_CHECK_MSG(executor_ != nullptr, "set_executor must be called before SubmitJob");
  spec.Validate();
  auto job = std::make_unique<JobState>();
  job->spec = std::move(spec);
  job->done = std::move(done);
  job->rng = monoutil::Rng(job->spec.seed);
  job->result.job_name = job->spec.name;
  job->result.start = sim_->now();
  JobState* raw = job.get();
  jobs_.push_back(std::move(job));
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    // One driver track per submission; the executor tag keeps a Spark run and a
    // monotasks run of the same job apart in a shared trace file.
    raw->trace_track = tracer->Track(
        "driver", std::string(executor_->trace_name()) + ":" + raw->spec.name + "#" +
                      std::to_string(jobs_.size() - 1));
    tracer->BeginSpan(raw->trace_track, raw->spec.name, "job", sim_->now().seconds());
  }
  ActivateNextStage(raw);
}

JobResult JobDriver::RunJob(JobSpec spec) {
  bool finished = false;
  JobResult result;
  SubmitJob(std::move(spec), [&finished, &result](JobResult r) {
    finished = true;
    result = std::move(r);
  });
  sim_->Run();
  MONO_CHECK_MSG(finished, "simulation drained without completing the job");
  return result;
}

void JobDriver::ActivateNextStage(JobState* job) {
  const int stage_index = static_cast<int>(job->next_stage);
  ++job->next_stage;
  const StageExecution* prev =
      job->stages.empty() ? nullptr : job->stages.back().get();
  auto stage = std::make_unique<StageExecution>(job->spec, stage_index,
                                                cluster_->num_machines(), dfs_, prev,
                                                &job->rng);
  StageExecution* raw = stage.get();
  job->stages.push_back(std::move(stage));
  raw->set_on_complete([this, job, raw] { OnStageComplete(job, raw); });
  raw->set_trace_label(std::string(executor_->trace_name()) + ":" + raw->spec().name);
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    if (job->trace_track.valid()) {
      tracer->BeginSpan(job->trace_track, raw->spec().name, "stage",
                        sim_->now().seconds(), raw->trace_label());
    }
  }
  raw->Activate(sim_->now());
  job->stage_start_counters = cluster_->SnapshotUsage();
  pool_->AddStage(raw);
  executor_->OnWorkAvailable();
}

void JobDriver::OnStageComplete(JobState* job, StageExecution* stage) {
  pool_->RemoveStage(stage);
  FillUtilization(&stage->result());
  // Device-level measurement over the stage window (includes any concurrent jobs'
  // work — that ambiguity is the point of the Fig 16 experiment).
  const ClusterSim::UsageCounters end = cluster_->SnapshotUsage();
  const ClusterSim::UsageCounters& start = job->stage_start_counters;
  MeasuredUsage& measured = stage->result().measured;
  measured.cpu_seconds = end.cpu_seconds - start.cpu_seconds;
  measured.disk_read_bytes = end.disk_read_bytes - start.disk_read_bytes;
  measured.disk_write_bytes = end.disk_write_bytes - start.disk_write_bytes;
  measured.network_bytes = end.network_bytes - start.network_bytes;
  job->result.stages.push_back(stage->result());
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    if (job->trace_track.valid()) {
      tracer->EndSpan(job->trace_track, sim_->now().seconds());  // stage span
      if (job->next_stage >= job->spec.stages.size()) {
        tracer->EndSpan(job->trace_track, sim_->now().seconds());  // job span
      }
    }
  }

  if (job->next_stage < job->spec.stages.size()) {
    ActivateNextStage(job);
    return;
  }
  job->result.end = sim_->now();
  job->result.peak_buffered_bytes = executor_->peak_buffered_bytes();
  // Digest of every event fired up to job completion; the determinism witness
  // for this run (metrics.h).
  job->result.sim_digest = sim_->digest();
  if (job->done) {
    // Deliver via an event so the callback does not run inside executor frames.
    auto done = std::move(job->done);
    auto result = job->result;
    sim_->ScheduleAfter(monoutil::SimTime(),
                        [done = std::move(done), result = std::move(result)] {
      done(result);
    }, "job-done");
  }
}

void JobDriver::FillUtilization(StageResult* result) const {
  if (!cluster_->trace_enabled() || result->end <= result->start) {
    return;
  }
  result->utilization.measured = true;
  const monoutil::SimTime from = result->start;
  const monoutil::SimTime to = result->end;
  for (int m = 0; m < cluster_->num_machines(); ++m) {
    const MachineSim& machine = cluster_->machine(m);
    result->utilization.cpu.push_back(machine.cpu().MeanUtilization(from, to));
    double disk_util = 0.0;
    for (int d = 0; d < machine.num_disks(); ++d) {
      disk_util += machine.disk(d).MeanUtilization(from, to);
    }
    result->utilization.disk.push_back(disk_util /
                                       static_cast<double>(machine.num_disks()));
    result->utilization.network.push_back(
        cluster_->fabric().MeanIngressUtilization(m, from, to));
  }
}

}  // namespace monosim
