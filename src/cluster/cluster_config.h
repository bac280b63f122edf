// Hardware configuration for the simulated cluster.
//
// Presets mirror the instance types used in the paper's evaluation (§5.1): machines
// with 8 vCPUs, ~60 GB of memory, and two HDDs (m2.4xlarge-like) or one/two SSDs
// (i2.2xlarge-like). Absolute device speeds are calibration parameters, not claims;
// the experiments depend on ratios (CPU work per byte vs. device bandwidth).
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

struct DiskConfig {
  DiskType type = DiskType::kHdd;
  // Sequential bandwidth for a single streaming request.
  monoutil::BytesPerSecond bandwidth = monoutil::MiBps(90);
  // HDD only: aggregate throughput degrades as 1 / (1 + alpha * (w - 1)) where w is
  // the total contention weight of the in-service requests (the request weights
  // and the SSD capacity curve are calibration constants in disk.cc).
  double seek_alpha = 0.2;

  static DiskConfig Hdd() { return DiskConfig{}; }
  static DiskConfig Ssd() {
    DiskConfig config;
    config.type = DiskType::kSsd;
    config.bandwidth = monoutil::MiBps(450);
    return config;
  }
};

struct BufferCacheConfig {
  // Dirty bytes the OS tolerates before throttling writers into the disk (Linux's
  // dirty_ratio applied to the ~60 GB workers of §5.1).
  monoutil::Bytes dirty_limit = monoutil::GiB(8);
  // Delay before background writeback begins flushing dirty data.
  monoutil::SimTime writeback_delay = monoutil::Seconds(30);
  // Size of each background flush request issued to a disk.
  monoutil::Bytes flush_chunk = monoutil::MiB(16);
  // Memory copy bandwidth governing how fast a cached write "completes".
  monoutil::BytesPerSecond memory_bandwidth = monoutil::GiBps(3);
};

struct MachineConfig {
  int cores = 8;
  std::vector<DiskConfig> disks = {DiskConfig::Hdd(), DiskConfig::Hdd()};
  // Full-duplex NIC bandwidth (each direction).
  monoutil::BytesPerSecond nic_bandwidth = monoutil::Gbps(1);
  monoutil::Bytes memory = monoutil::GiB(60);
  BufferCacheConfig buffer_cache;

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
