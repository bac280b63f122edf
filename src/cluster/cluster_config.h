// Hardware configuration for the simulated cluster.
//
// Presets mirror the instance types used in the paper's evaluation (§5.1): machines
// with 8 vCPUs and two HDDs (m2.4xlarge-like) or one/two SSDs (i2.2xlarge-like).
// Their ~60 GB of memory shows up only as the buffer cache's dirty limit
// (BufferCacheSim::kDirtyLimit). Absolute device speeds are calibration parameters,
// not claims; the experiments depend on ratios (CPU work per byte vs. device
// bandwidth).
#ifndef MONOTASKS_SRC_CLUSTER_CLUSTER_CONFIG_H_
#define MONOTASKS_SRC_CLUSTER_CLUSTER_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/units.h"

namespace monosim {

enum class DiskType {
  kHdd,
  kSsd,
};

// A disk's type and speed. The HDD seek degradation, the request contention
// weights and the SSD capacity curve are calibration constants in disk.cc.
struct DiskConfig {
  DiskType type = DiskType::kHdd;
  // Sequential bandwidth for a single streaming request.
  monoutil::BytesPerSecond bandwidth = monoutil::MiBps(90);

  static DiskConfig Hdd() { return DiskConfig{}; }
  static DiskConfig Ssd() {
    DiskConfig config;
    config.type = DiskType::kSsd;
    config.bandwidth = monoutil::MiBps(450);
    return config;
  }
};

struct MachineConfig {
  int cores = 8;
  std::vector<DiskConfig> disks = {DiskConfig::Hdd(), DiskConfig::Hdd()};
  // Full-duplex NIC bandwidth (each direction).
  monoutil::BytesPerSecond nic_bandwidth = monoutil::Gbps(1);

  // 8 vCPU, 2 HDD, 1 Gbps: the m2.4xlarge-like workers from §5.1.
  static MachineConfig HddWorker(int num_disks = 2);
  // 8 vCPU, n SSD, 1 Gbps: the i2.2xlarge-like workers from §5.1.
  static MachineConfig SsdWorker(int num_disks = 2);
};

struct ClusterConfig {
  int num_machines = 5;
  MachineConfig machine;
  uint64_t seed = 42;
  // Optional per-machine overrides (keyed by machine index). Used to model
  // heterogeneous or degraded hardware — e.g. one machine with a failing disk —
  // which is one of the performance questions the paper's introduction poses.
  std::vector<std::pair<int, MachineConfig>> overrides;

  static ClusterConfig Of(int num_machines, MachineConfig machine, uint64_t seed = 42) {
    ClusterConfig config;
    config.num_machines = num_machines;
    config.machine = machine;
    config.seed = seed;
    return config;
  }

  // The configuration machine `index` should use.
  const MachineConfig& MachineAt(int index) const {
    for (const auto& [machine_index, config] : overrides) {
      if (machine_index == index) {
        return config;
      }
    }
    return machine;
  }
};

inline MachineConfig MachineConfig::HddWorker(int num_disks) {
  MachineConfig config;
  config.disks.assign(static_cast<size_t>(num_disks), DiskConfig::Hdd());
  return config;
}

inline MachineConfig MachineConfig::SsdWorker(int num_disks) {
  MachineConfig config;
  config.disks.assign(static_cast<size_t>(num_disks), DiskConfig::Ssd());
  return config;
}

}  // namespace monosim

#endif  // MONOTASKS_SRC_CLUSTER_CLUSTER_CONFIG_H_
