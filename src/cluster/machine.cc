#include "src/cluster/machine.h"

#include <utility>

#include "src/common/check.h"

namespace monosim {

MachineSim::MachineSim(Simulation* sim, int machine_id, const MachineConfig& config)
    : id_(machine_id),
      config_(config),
      cpu_(sim, "machine" + std::to_string(machine_id) + ".cpu",
           ConstantCapacity(static_cast<double>(config.cores)), /*per_request_cap=*/1.0) {
  MONO_CHECK(config.cores >= 1);
  MONO_CHECK(!config.disks.empty());
  cpu_.set_nominal_capacity(static_cast<double>(config.cores));
  std::vector<DiskSim*> raw_disks;
  for (size_t d = 0; d < config.disks.size(); ++d) {
    disks_.push_back(std::make_unique<DiskSim>(
        sim, "machine" + std::to_string(machine_id) + ".disk" + std::to_string(d),
        config.disks[d]));
    raw_disks.push_back(disks_.back().get());
  }
  buffer_cache_ = std::make_unique<BufferCacheSim>(sim, raw_disks);
}

void MachineSim::EnableTrace() {
  cpu_.EnableTrace();
  for (auto& disk : disks_) {
    disk->EnableTrace();
  }
}

ClusterSim::ClusterSim(Simulation* sim, const ClusterConfig& config)
    : sim_(sim), config_(config) {
  MONO_CHECK(config.num_machines >= 1);
  for (int m = 0; m < config.num_machines; ++m) {
    machines_.push_back(std::make_unique<MachineSim>(sim, m, config.MachineAt(m)));
  }
  fabric_ = std::make_unique<NetworkFabricSim>(sim, config.num_machines,
                                               config.machine.nic_bandwidth);
}

ClusterSim::UsageCounters ClusterSim::SnapshotUsage() const {
  UsageCounters counters;
  for (const auto& machine : machines_) {
    counters.cpu_seconds += machine->cpu().total_served();
    for (int d = 0; d < machine->num_disks(); ++d) {
      counters.disk_read_bytes += machine->disk(d).bytes_read();
      counters.disk_write_bytes += machine->disk(d).bytes_written();
    }
  }
  counters.network_bytes = fabric_->total_bytes_transferred();
  return counters;
}

void ClusterSim::EnableTrace() {
  trace_enabled_ = true;
  for (auto& machine : machines_) {
    machine->EnableTrace();
  }
  fabric_->EnableTrace();
}

}  // namespace monosim
