// DiskSim: one physical disk (HDD or SSD) on a simulated machine.
//
// Reads and writes share the device's FluidServer, so concurrent requests contend
// exactly as the capacity model dictates (HDD seek degradation, SSD channels). Write
// requests may instead be routed through the machine's BufferCacheSim (Spark's
// behaviour); DiskSim itself is always write-through, which is what the paper's disk
// monotasks require (§3.1: "disk monotasks flush all writes to disk").
#ifndef MONOTASKS_SRC_CLUSTER_DISK_H_
#define MONOTASKS_SRC_CLUSTER_DISK_H_

#include <string>
#include <type_traits>
#include <utility>

#include "src/cluster/cluster_config.h"
#include "src/simcore/audit.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"

namespace monosim {

class DiskSim : public Auditable {
 public:
  // Owned by its MachineSim, which outlives the simulation run, so `this`
  // captures into its completion plumbing cannot dangle.
  MONO_SIM_OWNED;

  DiskSim(Simulation* sim, std::string name, const DiskConfig& config);
  ~DiskSim() override;

  DiskSim(const DiskSim&) = delete;
  DiskSim& operator=(const DiskSim&) = delete;

  // Starts a read of `bytes`; `done` (any void() callable; oversize captures
  // draw pooled storage from the owning simulation's arena) fires when the
  // data is in memory.
  template <typename F>
  void Read(monoutil::Bytes bytes, F&& done) {
    ReadImpl(bytes, WrapCallback(std::forward<F>(done)));
  }

  // Starts a write-through of `bytes`; `done` fires when the data is durable.
  template <typename F>
  void Write(monoutil::Bytes bytes, F&& done) {
    WriteImpl(bytes, WrapCallback(std::forward<F>(done)));
  }

  // Number of requests currently being served by the device.
  int active_requests() const { return server_.active(); }

  monoutil::Bytes bytes_read() const { return bytes_read_; }
  monoutil::Bytes bytes_written() const { return bytes_written_; }

  const DiskConfig& config() const { return config_; }

  // Device bandwidth for a single streaming request (the utilization denominator).
  monoutil::BytesPerSecond nominal_bandwidth() const {
    return monoutil::BytesPerSecond(server_.nominal_capacity());
  }

  // Always-on utilization/saturation integrals (see FluidServer): virtual
  // time with any request in service, and the subset at full capacity.
  monoutil::SimTime busy_seconds() const { return server_.busy_seconds(); }
  monoutil::SimTime saturated_seconds() const { return server_.saturated_seconds(); }

  void EnableTrace() { server_.EnableTrace(); }
  const RateTrace& rate_trace() const { return server_.rate_trace(); }
  double MeanUtilization(SimTime from, SimTime to) const {
    return server_.MeanUtilization(from, to);
  }

  const std::string& name() const { return server_.name(); }

  // Invariant auditing (audit.h): read bookkeeping consistent with the device's
  // active set; no reads left in flight when the simulation drains. The underlying
  // FluidServer audits its own rate and conservation invariants.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

 private:
  // Wraps a caller's callback against the owning simulation's arena; a
  // ready-made InlineCallback passes through.
  template <typename F>
  InlineCallback WrapCallback(F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineCallback>) {
      return std::forward<F>(fn);
    } else {
      return InlineCallback(std::forward<F>(fn), sim_->callback_arena());
    }
  }

  void ReadImpl(monoutil::Bytes bytes, InlineCallback&& done);
  void WriteImpl(monoutil::Bytes bytes, InlineCallback&& done);

  Simulation* sim_;
  DiskConfig config_;
  FluidServer server_;
  monoutil::Bytes bytes_read_;
  monoutil::Bytes bytes_written_;
  int active_reads_ = 0;  // Drives the mixed-vs-solo write contention weight.
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_CLUSTER_DISK_H_
