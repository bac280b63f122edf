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
  // data is in memory. `done` is captured by value next to `this` and wrapped
  // once, so a capture of up to 40 bytes stays inline.
  template <typename F>
  void Read(monoutil::Bytes bytes, F&& done) {
    const double weight = AdmitRead(bytes);
    server_.Submit(
        static_cast<double>(bytes.count()),
        [this, done = std::forward<F>(done)]() mutable {
          --active_reads_;
          done();
        },
        weight, /*share_weight=*/1.0);
  }

  // Starts a write-through of `bytes`; `done` fires when the data is durable.
  template <typename F>
  void Write(monoutil::Bytes bytes, F&& done) {
    const double weight = AdmitWrite(bytes);
    server_.Submit(static_cast<double>(bytes.count()), std::forward<F>(done), weight,
                   /*share_weight=*/1.0);
  }

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
  // Book a read or write of `bytes` about to be submitted and return its
  // contention weight. Every disk request carries share weight 1.
  double AdmitRead(monoutil::Bytes bytes);
  double AdmitWrite(monoutil::Bytes bytes);

  Simulation* sim_;
  DiskConfig config_;
  FluidServer server_;
  monoutil::Bytes bytes_read_;
  monoutil::Bytes bytes_written_;
  int active_reads_ = 0;  // Drives the mixed-vs-solo write contention weight.
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_CLUSTER_DISK_H_
