#include "src/framework/executor.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/tracer.h"
#include "src/framework/stage_execution.h"

namespace monosim {

MultitaskSim::MultitaskSim(TaskAssignment assignment, uint64_t dispatch_id, SimTime now)
    : assignment_(std::move(assignment)), dispatch_id_(dispatch_id), start_time_(now) {
  const StageSpec& spec = assignment_.stage->spec();
  write_total_ = assignment_.shuffle_write_bytes + assignment_.output_bytes;
  const bool shuffle_in_memory = spec.output == OutputSink::kShuffle && spec.shuffle_to_memory;
  output_io_ = write_total_ > monoutil::Bytes(0) && !shuffle_in_memory;
}

void MultitaskSim::Start() {
  StageExecution* stage = assignment_.stage;
  const StageSpec& spec = stage->spec();
  auto& usage = stage->result().usage;
  if (spec.input == InputSource::kDfs) {
    usage.disk_read_bytes += assignment_.input_bytes;
    usage.input_disk_read_bytes += assignment_.input_bytes;
    usage.input_uncompressed_bytes += assignment_.input_bytes * spec.input_compression_ratio;
    if (!assignment_.input_local) {
      usage.network_bytes += assignment_.input_bytes;
    }
  }
  if (output_io_) {
    usage.disk_write_bytes += write_total_;
  }
  if (spec.output == OutputSink::kShuffle) {
    // Recorded up front: the reduce stage only begins after every map task is done,
    // so the per-machine totals are complete by the time they are consumed.
    stage->RecordShuffleWrite(assignment_.machine, assignment_.shuffle_write_bytes);
  }
  Run();
}

ExecutorSim::ExecutorSim(Simulation* sim, ClusterSim* cluster, TaskPool* pool, Names names)
    : sim_(sim), cluster_(cluster), pool_(pool), names_(names) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK(cluster_ != nullptr);
  MONO_CHECK(pool_ != nullptr);
  machines_.resize(static_cast<size_t>(cluster_->num_machines()));
  sim_->RegisterAuditable(this);
}

ExecutorSim::~ExecutorSim() {
  sim_->UnregisterAuditable(this);
}

void ExecutorSim::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  const SimTime now = sim_->now();
  const char* source = names_.audit_source;
  int active_total = 0;
  for (const MachineState& state : machines_) {
    active_total += state.active;
    audit.Expect(state.active >= 0 && state.buffered_bytes >= monoutil::Bytes(0), now, source,
                 "machine-bookkeeping", "negative active multitask count or buffered bytes");
  }
  audit.ExpectLazy(active_total == static_cast<int>(running_.size()), now, source,
                   "multitask-bookkeeping", [&] {
                     std::ostringstream d;
                     d << "per-machine active multitasks sum to " << active_total
                       << " but the running registry holds " << running_.size();
                     return d.str();
                   });
  if (phase != AuditPhase::kDrain) {
    return;
  }
  audit.ExpectLazy(running_.empty(), now, source, "drained-multitasks", [&] {
    std::ostringstream d;
    d << running_.size() << " multitask(s) still running after the event queue drained";
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
  }
}

void ExecutorSim::OnWorkAvailable() {
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

bool ExecutorSim::DispatchOne(int machine) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  if (state.active >= MultitaskLimit(machine)) {
    return false;
  }
  auto assignment = pool_->TakeTask(machine);
  if (!assignment.has_value()) {
    return false;
  }
  ++state.active;
  assignment->stage->OnTaskStarted(assignment->task_index, sim_->now());
  std::unique_ptr<MultitaskSim> task = MakeTask(std::move(*assignment), next_dispatch_id_++);
  MultitaskSim* raw = task.get();
  running_.emplace(raw->dispatch_id(), std::move(task));
  // The launch overhead occupies the machine's capacity before the multitask starts.
  sim_->ScheduleAfter(kTaskLaunchOverhead, [raw] { raw->Start(); });
  return true;
}

void ExecutorSim::TryDispatch(int machine) {
  while (DispatchOne(machine)) {
  }
}

void ExecutorSim::OnTaskComplete(MultitaskSim* task) {
  const TaskAssignment& assignment = task->assignment();
  const int machine = assignment.machine;
  StageExecution* stage = assignment.stage;
  const int task_index = assignment.task_index;
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    // One span per multitask on the machine's task lanes; spans start at
    // dispatch, so launch overhead is inside the span.
    tracer->CompleteOnLane(TraceProcess(machine), names_.task_lane,
                           stage->spec().name + "/t" + std::to_string(task_index), "task",
                           task->start_time().seconds(), sim_->now().seconds(),
                           stage->trace_label());
  }
  if (completed_metric_ == nullptr) {
    completed_metric_ = monotrace::MetricsRegistry::Global().Get(names_.completed_metric);
  }
  completed_metric_->Increment();
  MachineState& state = machines_[static_cast<size_t>(machine)];
  MONO_CHECK(state.active > 0);
  --state.active;
  // OnTaskComplete is called from inside the multitask's own frames, so
  // destruction is deferred to a zero-delay event that runs after the current
  // event unwinds.
  auto it = running_.find(task->dispatch_id());
  MONO_CHECK(it != running_.end());
  sim_->ScheduleAfter(SimTime(), [owned = std::move(it->second)] {});
  running_.erase(it);
  stage->OnTaskFinished(task_index, sim_->now());
  TryDispatch(machine);
}

int ExecutorSim::PickWriteDisk(int machine) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  const int disk = state.next_write_disk;
  state.next_write_disk = (disk + 1) % cluster_->machine(machine).num_disks();
  return disk;
}

int ExecutorSim::PickServeDisk(int machine) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  const int disk = state.next_serve_disk;
  state.next_serve_disk = (disk + 1) % cluster_->machine(machine).num_disks();
  return disk;
}

void ExecutorSim::AddBuffered(int machine, monoutil::Bytes bytes) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  state.buffered_bytes += bytes;
  peak_buffered_ = std::max(peak_buffered_, state.buffered_bytes);
  TraceBuffered(machine);
}

void ExecutorSim::RemoveBuffered(int machine, monoutil::Bytes bytes) {
  MachineState& state = machines_[static_cast<size_t>(machine)];
  state.buffered_bytes -= bytes;
  TraceBuffered(machine);
}

void ExecutorSim::TraceBuffered(int machine) const {
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    tracer->Counter(
        TraceProcess(machine), "buffered-bytes", sim_->now().seconds(),
        static_cast<double>(machines_[static_cast<size_t>(machine)].buffered_bytes.count()));
  }
}

}  // namespace monosim
