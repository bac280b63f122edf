// MachineSim and ClusterSim: the simulated worker machines.
//
// A machine owns a CPU core pool (a FluidServer in CPU-seconds, one core max per
// request), its disks, and an OS buffer cache. The cluster owns the machines and the
// network fabric. Executors (the Spark-baseline multitask executor and the monotask
// executor) drive these devices; nothing here imposes a scheduling policy.
#ifndef MONOTASKS_SRC_CLUSTER_MACHINE_H_
#define MONOTASKS_SRC_CLUSTER_MACHINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/buffer_cache.h"
#include "src/cluster/cluster_config.h"
#include "src/cluster/disk.h"
#include "src/cluster/network.h"
#include "src/common/check.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"

namespace monosim {

class MachineSim {
 public:
  MachineSim(Simulation* sim, int machine_id, const MachineConfig& config);

  MachineSim(const MachineSim&) = delete;
  MachineSim& operator=(const MachineSim&) = delete;

  int id() const { return id_; }
  int num_cores() const { return config_.cores; }
  int num_disks() const { return static_cast<int>(disks_.size()); }
  const MachineConfig& config() const { return config_; }

  // CPU pool: submit `cpu_seconds` of single-threaded compute; `done` (any
  // void() callable, wrapped once for the pool) fires when it is served. CPU
  // work is a FluidServer *work amount* (it stretches under contention), not a
  // span of the simulated clock, so it is deliberately not a SimTime.
  template <typename F>
  void RunCompute(double cpu_seconds,  // CPU work units, not a SimTime span.
                  F&& done) {
    MONO_CHECK(cpu_seconds >= 0);
    cpu_.Submit(cpu_seconds, std::forward<F>(done));
  }

  DiskSim& disk(int index) { return *disks_[static_cast<size_t>(index)]; }
  const DiskSim& disk(int index) const { return *disks_[static_cast<size_t>(index)]; }
  BufferCacheSim& buffer_cache() { return *buffer_cache_; }

  // Enables rate tracing on the CPU pool and all disks.
  void EnableTrace();

  const FluidServer& cpu() const { return cpu_; }
  FluidServer& cpu() { return cpu_; }

 private:
  int id_;
  MachineConfig config_;
  FluidServer cpu_;
  std::vector<std::unique_ptr<DiskSim>> disks_;
  std::unique_ptr<BufferCacheSim> buffer_cache_;
};

class ClusterSim {
 public:
  ClusterSim(Simulation* sim, const ClusterConfig& config);

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  int num_machines() const { return static_cast<int>(machines_.size()); }
  MachineSim& machine(int index) { return *machines_[static_cast<size_t>(index)]; }
  const MachineSim& machine(int index) const { return *machines_[static_cast<size_t>(index)]; }
  NetworkFabricSim& fabric() { return *fabric_; }
  const ClusterConfig& config() const { return config_; }
  Simulation& sim() { return *sim_; }

  // Enables rate tracing cluster-wide (CPU, disks, NIC ingress).
  void EnableTrace();

  // Whether EnableTrace() ran — lets consumers of StageUtilization distinguish
  // "measured 0% utilization" from "utilization was never measured".
  bool trace_enabled() const { return trace_enabled_; }

  // Cumulative cluster-wide device counters; subtract two snapshots to get what an
  // external observer would measure over a window.
  struct UsageCounters {
    double cpu_seconds = 0.0;  // CPU work units, not a SimTime span.
    monoutil::Bytes disk_read_bytes;
    monoutil::Bytes disk_write_bytes;
    monoutil::Bytes network_bytes;
  };
  UsageCounters SnapshotUsage() const;

 private:
  Simulation* sim_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<MachineSim>> machines_;
  std::unique_ptr<NetworkFabricSim> fabric_;
  bool trace_enabled_ = false;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_CLUSTER_MACHINE_H_
