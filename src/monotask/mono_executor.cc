#include "src/monotask/mono_executor.h"

#include <memory>
#include <sstream>
#include <utility>

#include "src/common/check.h"
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
    : ExecutorSim(sim, cluster, pool,
                  {"mono", "multitask", "mono-executor", "mono.multitasks_completed"}),
      config_(config) {
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
}

void MonotasksExecutorSim::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  ExecutorSim::AuditInvariants(audit, phase);
  if (phase != AuditPhase::kDrain) {
    return;
  }
  for (size_t m = 0; m < workers_.size(); ++m) {
    const WorkerState& worker = workers_[m];
    bool idle = worker.cpu->queue_length() == 0 && worker.cpu->running() == 0 &&
                worker.network->queue_length() == 0 && worker.network->active() == 0;
    for (const auto& disk : worker.disks) {
      idle = idle && disk->queue_length() == 0 && disk->running() == 0;
    }
    audit.ExpectLazy(idle, sim_->now(), "mono-executor", "drained-schedulers", [&] {
      std::ostringstream d;
      d << "machine " << m << " has queued or running monotasks after the event queue drained";
      return d.str();
    });
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

std::unique_ptr<MultitaskSim> MonotasksExecutorSim::MakeTask(TaskAssignment assignment,
                                                             uint64_t dispatch_id) {
  return std::make_unique<MonoMultitaskSim>(this, std::move(assignment), dispatch_id);
}

int MonotasksExecutorSim::PickWriteDisk(int machine) {
  if (config_.load_aware_disk_writes) {
    const WorkerState& worker = workers_[static_cast<size_t>(machine)];
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
  return ExecutorSim::PickWriteDisk(machine);
}

void MonotasksExecutorSim::EnableQueueTraces() {
  for (auto& worker : workers_) {
    worker.cpu->EnableQueueTrace();
    for (auto& disk : worker.disks) {
      disk->EnableQueueTrace();
    }
  }
}

}  // namespace monosim
