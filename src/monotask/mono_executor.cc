#include "src/monotask/mono_executor.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/tracer.h"
#include "src/framework/stage_execution.h"
#include "src/monotask/mono_multitask.h"

namespace monosim {
namespace {

// One outstanding monotask per HDD: no seek thrash (§3.3).
constexpr int kHddOutstanding = 1;
// The "+1" of §3.4: extra multitasks assigned beyond the schedulers' concurrency
// sum so round-robin queues never run empty while the driver is asked for work.
constexpr int kExtraMultitasks = 1;

}  // namespace

MonotasksExecutorSim::MonotasksExecutorSim(Simulation* sim, ClusterSim* cluster,
                                           TaskPool* pool, MonoConfig config)
    : sim_(sim), cluster_(cluster), pool_(pool), config_(config) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK(cluster_ != nullptr);
  MONO_CHECK(pool_ != nullptr);
  MONO_CHECK(config_.ssd_outstanding >= 1);
  MONO_CHECK(config_.network_multitask_limit >= 1);

  workers_.resize(static_cast<size_t>(cluster_->num_machines()));
  for (int m = 0; m < cluster_->num_machines(); ++m) {
    WorkerState& worker = workers_[static_cast<size_t>(m)];
    MachineSim& machine = cluster_->machine(m);
    worker.cpu = std::make_unique<SlotSchedulerSim>(sim_, &machine);
    worker.cpu->SetTraceSeries(TraceProcess(m), "cpu-queue");
    for (int d = 0; d < machine.num_disks(); ++d) {
      const int outstanding = machine.disk(d).config().type == DiskType::kHdd
                                  ? kHddOutstanding
                                  : config_.ssd_outstanding;
      worker.disks.push_back(std::make_unique<SlotSchedulerSim>(
          sim_, &machine.disk(d), outstanding, config_.fifo_disk_queues));
      worker.disks.back()->SetTraceSeries(TraceProcess(m),
                                          "disk" + std::to_string(d) + "-queue");
    }
    worker.network =
        std::make_unique<NetworkSchedulerSim>(sim_, config_.network_multitask_limit);
    worker.network->SetTraceSeries(TraceProcess(m), "net-queue");
  }
  sim_->RegisterAuditable(this);
}

MonotasksExecutorSim::~MonotasksExecutorSim() {
  sim_->UnregisterAuditable(this);
}

void MonotasksExecutorSim::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  const SimTime now = sim_->now();
  const char* source = "mono-executor";
  int active_total = 0;
  for (const WorkerState& worker : workers_) {
    active_total += worker.active_multitasks;
    audit.Expect(worker.active_multitasks >= 0 &&
                     worker.buffered_bytes >= monoutil::Bytes(0), now,
                 source, "worker-bookkeeping",
                 "negative active multitask count or buffered bytes");
  }
  audit.ExpectLazy(active_total == static_cast<int>(running_.size()), now, source,
                   "multitask-bookkeeping", [&] {
                     std::ostringstream d;
                     d << "per-machine active multitasks sum to " << active_total
                       << " but the running registry holds " << running_.size();
                     return d.str();
                   });
  if (phase == AuditPhase::kDrain) {
    audit.ExpectLazy(running_.empty(), now, source, "drained-multitasks", [&] {
      std::ostringstream d;
      d << running_.size() << " multitask(s) still running after the event queue drained";
      return d.str();
    });
    for (size_t m = 0; m < workers_.size(); ++m) {
      const WorkerState& worker = workers_[m];
      const bool idle =
          worker.cpu->queue_length() == 0 && worker.cpu->running() == 0 &&
          worker.network->queue_length() == 0 && worker.network->active() == 0;
      bool disks_idle = true;
      for (const auto& disk : worker.disks) {
        disks_idle = disks_idle && disk->queue_length() == 0 && disk->running() == 0;
      }
      audit.ExpectLazy(idle && disks_idle, now, source, "drained-schedulers", [&] {
        std::ostringstream d;
        d << "machine " << m
          << " has queued or running monotasks after the event queue drained";
        return d.str();
      });
      audit.ExpectLazy(worker.buffered_bytes == monoutil::Bytes(0), now, source,
                       "drained-buffered-bytes", [&] {
                         std::ostringstream d;
                         d << "machine " << m << " still counts " << worker.buffered_bytes
                           << " of buffered task data after the event queue drained";
                         return d.str();
                       });
    }
  }
}

int MonotasksExecutorSim::MultitaskLimit(int machine) const {
  // §3.4: enough multitasks for every resource scheduler to be at its concurrency
  // limit, plus one extra so round-robin queues never run dry.
  const WorkerState& worker = workers_[static_cast<size_t>(machine)];
  int limit = worker.cpu->max_concurrency();
  for (const auto& disk : worker.disks) {
    limit += disk->max_concurrency();
  }
  limit += worker.network->max_concurrency();
  return limit + kExtraMultitasks;
}

SlotSchedulerSim& MonotasksExecutorSim::cpu_scheduler(int machine) {
  return *workers_[static_cast<size_t>(machine)].cpu;
}

SlotSchedulerSim& MonotasksExecutorSim::disk_scheduler(int machine, int disk) {
  return *workers_[static_cast<size_t>(machine)].disks[static_cast<size_t>(disk)];
}

NetworkSchedulerSim& MonotasksExecutorSim::network_scheduler(int machine) {
  return *workers_[static_cast<size_t>(machine)].network;
}

int MonotasksExecutorSim::num_disks(int machine) const {
  return static_cast<int>(workers_[static_cast<size_t>(machine)].disks.size());
}

void MonotasksExecutorSim::OnWorkAvailable() {
  // The driver calls this after activating a stage.
  // Breadth-first fill (one multitask per machine per round) so machines claim their
  // local blocks before any stealing happens.
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

bool MonotasksExecutorSim::DispatchOne(int machine) {
  WorkerState& worker = workers_[static_cast<size_t>(machine)];
  if (worker.active_multitasks >= MultitaskLimit(machine)) {
    return false;
  }
  auto assignment = pool_->TakeTask(machine);
  if (!assignment.has_value()) {
    return false;
  }
  ++worker.active_multitasks;
  assignment->stage->OnTaskStarted(assignment->task_index, sim_->now());
  auto multitask =
      std::make_unique<MonoMultitaskSim>(this, *assignment, next_dispatch_id_++);
  MonoMultitaskSim* raw = multitask.get();
  running_.emplace(raw->dispatch_id(), std::move(multitask));
  // The leading compute monotask that deserializes the task description and builds
  // the DAG (Fig 4 caption) is modeled as a fixed launch delay.
  sim_->ScheduleAfter(kTaskLaunchOverhead, [raw] { raw->Start(); });
  return true;
}

void MonotasksExecutorSim::TryDispatch(int machine) {
  while (DispatchOne(machine)) {
  }
}

void MonotasksExecutorSim::OnMultitaskComplete(MonoMultitaskSim* multitask) {
  const TaskAssignment& assignment = multitask->assignment();
  const int machine = assignment.machine;
  StageExecution* stage = assignment.stage;
  const int task_index = assignment.task_index;
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    tracer->CompleteOnLane(TraceProcess(machine), "multitask",
                           stage->spec().name + "/t" + std::to_string(task_index),
                           "task", multitask->start_time().seconds(),
                           sim_->now().seconds(),
                           stage->trace_label());
  }
  static monotrace::MetricCounter* tasks_metric =
      monotrace::MetricsRegistry::Global().Get("mono.multitasks_completed");
  tasks_metric->Increment();

  WorkerState& worker = workers_[static_cast<size_t>(machine)];
  MONO_CHECK(worker.active_multitasks > 0);
  --worker.active_multitasks;

  auto it = running_.find(multitask->dispatch_id());
  MONO_CHECK(it != running_.end());
  // Deferred destruction: this is called from inside the multitask's own frames.
  sim_->ScheduleAfter(SimTime(),
                      [owned = std::shared_ptr<MonoMultitaskSim>(std::move(it->second))] {});
  running_.erase(it);

  stage->OnTaskFinished(task_index, sim_->now());
  TryDispatch(machine);
}

int MonotasksExecutorSim::PickWriteDisk(int machine) {
  WorkerState& worker = workers_[static_cast<size_t>(machine)];
  if (config_.load_aware_disk_writes) {
    // §8 extension: route the write to the disk with the shortest write queue.
    int best = 0;
    int best_depth = worker.disks[0]->queued_writes() + worker.disks[0]->running();
    for (int d = 1; d < static_cast<int>(worker.disks.size()); ++d) {
      const int depth = worker.disks[static_cast<size_t>(d)]->queued_writes() +
                        worker.disks[static_cast<size_t>(d)]->running();
      if (depth < best_depth) {
        best = d;
        best_depth = depth;
      }
    }
    return best;
  }
  const int disk = worker.next_write_disk;
  worker.next_write_disk = (disk + 1) % static_cast<int>(worker.disks.size());
  return disk;
}

int MonotasksExecutorSim::PickServeDisk(int machine) {
  WorkerState& worker = workers_[static_cast<size_t>(machine)];
  const int disk = worker.next_serve_disk;
  worker.next_serve_disk = (disk + 1) % static_cast<int>(worker.disks.size());
  return disk;
}

void MonotasksExecutorSim::EnableQueueTraces() {
  for (auto& worker : workers_) {
    worker.cpu->EnableQueueTrace();
    for (auto& disk : worker.disks) {
      disk->EnableQueueTrace();
    }
  }
}

void MonotasksExecutorSim::AddBuffered(int machine, monoutil::Bytes bytes) {
  WorkerState& worker = workers_[static_cast<size_t>(machine)];
  worker.buffered_bytes += bytes;
  peak_buffered_ = std::max(peak_buffered_, worker.buffered_bytes);
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    tracer->Counter(TraceProcess(machine), "buffered-bytes", sim_->now().seconds(),
                    static_cast<double>(worker.buffered_bytes.count()));
  }
}

void MonotasksExecutorSim::RemoveBuffered(int machine, monoutil::Bytes bytes) {
  WorkerState& worker = workers_[static_cast<size_t>(machine)];
  worker.buffered_bytes -= bytes;
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    tracer->Counter(TraceProcess(machine), "buffered-bytes", sim_->now().seconds(),
                    static_cast<double>(worker.buffered_bytes.count()));
  }
}

}  // namespace monosim
