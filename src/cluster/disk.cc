#include "src/cluster/disk.h"

#include <sstream>
#include <utility>

#include "src/common/check.h"

namespace monosim {
namespace {

// SSD: number of requests needed to reach peak bandwidth (paper §3.3 found 4), and
// the fraction of peak available to a single stream.
constexpr int kSsdChannels = 4;
constexpr double kSsdSingleStreamFraction = 0.55;

// HDD: aggregate throughput degrades as 1 / (1 + kHddSeekAlpha * (w - 1)) once the
// total contention weight w of the in-service requests exceeds 1.
constexpr double kHddSeekAlpha = 0.2;

// Per-request contention weights, summed over the requests in service: the `w` of
// the HDD degradation (kHddSeekAlpha) and the load on the SSD ramp. They
// encode what actually costs head movement on a disk: concurrent *sequential
// readers* are nearly free (OS readahead amortizes the seeks), writes alone are
// nearly free (the elevator batches them), but writes interleaved with reads
// thrash. Calibrated jointly against §5.2's sort (Spark/MonoSpark = 1.54x, from
// mixed read+flush traffic) and Fig 8's read-only job (Spark ~flat).
//
// A sequential read stream (readahead absorbs most seeks).
constexpr double kReadContentionWeight = 0.25;
// A write when no reads are in service (elevator-batched, mostly appends) and when
// interleaved with reads (head thrashes between the read and write regions).
constexpr double kWriteContentionWeightSolo = 0.3;
constexpr double kWriteContentionWeightMixed = 6.0;

CapacityFn MakeCapacity(const DiskConfig& config) {
  switch (config.type) {
    case DiskType::kHdd:
      return HddCapacity(config.bandwidth.bps(), kHddSeekAlpha);
    case DiskType::kSsd:
      return SsdCapacity(config.bandwidth.bps(), kSsdChannels, kSsdSingleStreamFraction);
  }
  MONO_CHECK_MSG(false, "unknown disk type");
  return nullptr;
}

double NominalBandwidth(const DiskConfig& config) {
  // Utilization is measured against peak bandwidth, which for an SSD is only reached
  // with several outstanding requests. (FluidServer capacity is in generic work
  // units per second; for a disk the work unit is one byte.)
  return config.bandwidth.bps();
}

}  // namespace

DiskSim::DiskSim(Simulation* sim, std::string name, const DiskConfig& config)
    : sim_(sim), config_(config), server_(sim, std::move(name), MakeCapacity(config)) {
  server_.set_nominal_capacity(NominalBandwidth(config));
  sim_->RegisterAuditable(this);
}

DiskSim::~DiskSim() {
  sim_->UnregisterAuditable(this);
}

void DiskSim::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  const SimTime now = sim_->now();
  const char* source = server_.name().c_str();
  audit.Expect(bytes_read_ >= monoutil::Bytes(0) && bytes_written_ >= monoutil::Bytes(0),
               now, source,
               "byte-counters-non-negative", "cumulative read/write bytes went negative");
  audit.ExpectLazy(active_reads_ >= 0 && active_reads_ <= server_.active(), now, source,
                   "active-read-bookkeeping", [&] {
                     std::ostringstream d;
                     d << "active_reads " << active_reads_ << " outside [0, "
                       << server_.active() << "]";
                     return d.str();
                   });
  if (phase == AuditPhase::kDrain) {
    audit.ExpectLazy(active_reads_ == 0, now, source, "drained", [&] {
      std::ostringstream d;
      d << active_reads_ << " read(s) still in flight after the event queue drained";
      return d.str();
    });
  }
}

double DiskSim::AdmitRead(monoutil::Bytes bytes) {
  MONO_CHECK(bytes >= monoutil::Bytes(0));
  bytes_read_ += bytes;
  ++active_reads_;
  return kReadContentionWeight;
}

double DiskSim::AdmitWrite(monoutil::Bytes bytes) {
  MONO_CHECK(bytes >= monoutil::Bytes(0));
  bytes_written_ += bytes;
  // A write interleaved with reads thrashes the head; writes alone are batched by
  // the elevator and close to free. The weight is fixed at submission, which is a
  // fair approximation because writes are issued in bounded chunks.
  //
  // The contention weights model what a request *costs* the device, not how the
  // elevator prioritizes it — a mixed write destroys sequential bandwidth but does
  // not get served 24x faster than a read. All disk requests therefore carry share
  // weight 1 (equal bandwidth split), which is also what the contention weights
  // were calibrated against.
  return active_reads_ > 0 ? kWriteContentionWeightMixed : kWriteContentionWeightSolo;
}

}  // namespace monosim
