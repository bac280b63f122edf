#include "src/multitask/spark_executor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/tracer.h"
#include "src/framework/stage_execution.h"
#include "src/multitask/spark_task.h"

namespace monosim {

SparkExecutorSim::SparkExecutorSim(Simulation* sim, ClusterSim* cluster, TaskPool* pool,
                                   SparkConfig config)
    : sim_(sim), cluster_(cluster), pool_(pool), config_(config),
      machines_(static_cast<size_t>(cluster->num_machines())) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK(cluster_ != nullptr);
  MONO_CHECK(pool_ != nullptr);
  sim_->RegisterAuditable(this);
}

SparkExecutorSim::~SparkExecutorSim() {
  sim_->UnregisterAuditable(this);
}

void SparkExecutorSim::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  const SimTime now = sim_->now();
  const char* source = "spark-executor";
  int busy_total = 0;
  for (const MachineState& state : machines_) {
    busy_total += state.busy_slots;
    audit.Expect(state.busy_slots >= 0 && state.active_serve_reads >= 0 &&
                     state.buffered_bytes >= monoutil::Bytes(0),
                 now, source, "machine-bookkeeping",
                 "negative slot, serve-read, or buffered-byte count");
  }
  audit.ExpectLazy(busy_total == static_cast<int>(running_.size()), now, source,
                   "slot-bookkeeping", [&] {
                     std::ostringstream d;
                     d << "busy slots sum to " << busy_total
                       << " but the running registry holds " << running_.size();
                     return d.str();
                   });
  if (phase == AuditPhase::kDrain) {
    audit.ExpectLazy(running_.empty(), now, source, "drained-tasks", [&] {
      std::ostringstream d;
      d << running_.size() << " task(s) still running after the event queue drained";
      return d.str();
    });
    for (size_t m = 0; m < machines_.size(); ++m) {
      const MachineState& state = machines_[m];
      audit.ExpectLazy(state.buffered_bytes == monoutil::Bytes(0), now, source,
                       "drained-buffered-bytes", [&] {
                         std::ostringstream d;
                         d << "machine " << m << " still counts " << state.buffered_bytes
                           << " of buffered task data after the event queue drained";
                         return d.str();
                       });
      audit.ExpectLazy(state.active_serve_reads == 0 && state.serve_read_queue.empty(),
                       now, source, "drained-serve-reads", [&] {
                         std::ostringstream d;
                         d << "machine " << m << " has " << state.active_serve_reads
                           << " active and " << state.serve_read_queue.size()
                           << " queued serve read(s) after the event queue drained";
                         return d.str();
                       });
    }
  }
}

int SparkExecutorSim::SlotsFor(int machine) const {
  if (config_.slots_per_machine > 0) {
    return config_.slots_per_machine;
  }
  return cluster_->machine(machine).num_cores();
}

void SparkExecutorSim::OnWorkAvailable() {
  // The driver calls this after activating a stage.
  // Fill machines breadth-first (one task per machine per round) so local tasks are
  // claimed by their home machines before anyone starts stealing — the behaviour a
  // real driver gets from per-machine resource offers.
  bool assigned = true;
  while (assigned) {
    assigned = false;
    for (int m = 0; m < cluster_->num_machines(); ++m) {
      if (DispatchOne(m)) {
        assigned = true;
      }
    }
  }
}

bool SparkExecutorSim::DispatchOne(int machine) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  if (state.busy_slots >= SlotsFor(machine)) {
    return false;
  }
  auto assignment = pool_->TakeTask(machine);
  if (!assignment.has_value()) {
    return false;
  }
  ++state.busy_slots;
  assignment->stage->OnTaskStarted(assignment->task_index, sim_->now());
  auto task = std::make_unique<SparkTaskSim>(this, *assignment, next_dispatch_id_++);
  SparkTaskSim* raw = task.get();
  running_.emplace(raw->dispatch_id(), std::move(task));
  // The launch overhead (task deserialization on the executor) occupies the slot
  // before the pipeline starts.
  sim_->ScheduleAfter(kTaskLaunchOverhead, [raw] { raw->Start(); });
  return true;
}

void SparkExecutorSim::TryDispatch(int machine) {
  while (DispatchOne(machine)) {
  }
}

void SparkExecutorSim::OnTaskComplete(SparkTaskSim* task) {
  const TaskAssignment& assignment = task->assignment();
  const int machine = assignment.machine;
  StageExecution* stage = assignment.stage;
  const int task_index = assignment.task_index;
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    // One span per multitask on the machine's slot lanes; spans start when the
    // slot was claimed, so launch overhead is inside the span.
    tracer->CompleteOnLane(TraceProcess(machine), "slot",
                           stage->spec().name + "/t" + std::to_string(task_index),
                           "task", task->start_time().seconds(),
                           sim_->now().seconds(), stage->trace_label());
  }
  static monotrace::MetricCounter* tasks_metric =
      monotrace::MetricsRegistry::Global().Get("spark.tasks_completed");
  tasks_metric->Increment();
  MachineState& state = machines_[static_cast<size_t>(machine)];
  MONO_CHECK(state.busy_slots > 0);
  --state.busy_slots;
  // OnTaskComplete is called from inside the task's own frames, so destruction is
  // deferred to a zero-delay event that runs after the current event unwinds.
  auto it = running_.find(task->dispatch_id());
  MONO_CHECK(it != running_.end());
  // shared_ptr because std::function requires a copyable callable.
  sim_->ScheduleAfter(SimTime(),
                      [owned = std::shared_ptr<SparkTaskSim>(std::move(it->second))] {});
  running_.erase(it);
  stage->OnTaskFinished(task_index, sim_->now());
  TryDispatch(machine);
}

int SparkExecutorSim::PickWriteDisk(int machine) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  const int disk = state.next_write_disk;
  state.next_write_disk = (disk + 1) % cluster_->machine(machine).num_disks();
  return disk;
}

int SparkExecutorSim::PickServeDisk(int machine) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  const int disk = state.next_serve_disk;
  state.next_serve_disk = (disk + 1) % cluster_->machine(machine).num_disks();
  return disk;
}

void SparkExecutorSim::ServeRead(int machine, monoutil::Bytes bytes,
                                 std::function<void()> done) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  const SimTime requested = sim_->now();
  auto start = [this, machine, bytes, requested,
                done = std::move(done)]() mutable {
    // Queue-wait decomposition (telemetry.h): the shuffle service's I/O pool
    // is the Spark baseline's only explicit per-resource queue, so its wait is
    // the comparable number to mono.disk.queue_wait_seconds.
    if (monotrace::TelemetryEnabled()) {
      static monotrace::LatencyHistogram* wait_hist =
          monotrace::MetricsRegistry::Global().Histogram(
              "spark.serve_read.queue_wait_seconds");
      wait_hist->Add((sim_->now() - requested).seconds());
    }
    const SimTime dispatched = sim_->now();
    const int disk = PickServeDisk(machine);
    cluster_->machine(machine).disk(disk).Read(bytes, [this, machine, dispatched,
                                                       done = std::move(done)] {
      if (monotrace::TelemetryEnabled()) {
        static monotrace::LatencyHistogram* service_hist =
            monotrace::MetricsRegistry::Global().Histogram(
                "spark.serve_read.service_seconds");
        service_hist->Add((sim_->now() - dispatched).seconds());
      }
      MachineState& state = machines_[static_cast<size_t>(machine)];
      --state.active_serve_reads;
      if (!state.serve_read_queue.empty()) {
        auto next = std::move(state.serve_read_queue.front());
        state.serve_read_queue.pop_front();
        ++state.active_serve_reads;
        next();
      }
      done();
    });
  };
  if (state.active_serve_reads < config_.serve_read_concurrency) {
    ++state.active_serve_reads;
    start();
  } else {
    state.serve_read_queue.push_back(std::move(start));
  }
}

double SparkExecutorSim::ChunkCpuFactor() {
  if (config_.chunk_cpu_jitter_cv <= 0.0) {
    return 1.0;
  }
  // Lognormal with mean 1: exp(N(-sigma^2/2, sigma)) where sigma ~ cv for small cv.
  const double sigma = config_.chunk_cpu_jitter_cv;
  return std::exp(rng_.Normal(-0.5 * sigma * sigma, sigma));
}

void SparkExecutorSim::AddBuffered(int machine, monoutil::Bytes bytes) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  state.buffered_bytes += bytes;
  peak_buffered_ = std::max(peak_buffered_, state.buffered_bytes);
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    tracer->Counter(TraceProcess(machine), "buffered-bytes", sim_->now().seconds(),
                    static_cast<double>(state.buffered_bytes.count()));
  }
}

void SparkExecutorSim::RemoveBuffered(int machine, monoutil::Bytes bytes) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  state.buffered_bytes -= bytes;
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    tracer->Counter(TraceProcess(machine), "buffered-bytes", sim_->now().seconds(),
                    static_cast<double>(state.buffered_bytes.count()));
  }
}

}  // namespace monosim
