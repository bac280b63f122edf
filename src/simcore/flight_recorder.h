// FlightRecorder: a bounded ring of the most recent fired events.
//
// The run digest (Simulation::digest()) is a perfect witness that two runs
// diverged but says nothing about *where*; full traces (MONO_TRACE) say where
// but are opt-in and unaffordable always-on. The flight recorder fills the
// gap: every fired event appends its (virtual time, sequence, tag) plus the
// rolling digest *after* mixing that event, into a fixed-size ring. When
// something goes wrong — a SimAudit violation, a MONO_CHECK failure — the
// last kCapacity events and the digest trail are dumped automatically, so a
// crash report carries the recent schedule instead of just a stack.
//
// Recording is a handful of stores into preallocated memory (no allocation,
// no hashing beyond the digest the kernel already maintains), cheap enough to
// stay on in every run; set_enabled(false) exists for the overhead bench's
// telemetry-off variant and for tests.
#ifndef MONOTASKS_SRC_SIMCORE_FLIGHT_RECORDER_H_
#define MONOTASKS_SRC_SIMCORE_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/common/units.h"

namespace monosim {

class FlightRecorder {
 public:
  // Events retained. 256 spans several epochs of every workload in the repo
  // while keeping the ring at ~8 KiB.
  static constexpr size_t kCapacity = 256;

  struct Entry {
    monoutil::SimTime when;
    uint64_t seq = 0;
    const char* tag = "";     // Points at the event's literal; never owned.
    uint64_t digest = 0;      // Rolling run digest after mixing this event.
  };

  FlightRecorder() : ring_(kCapacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void Record(monoutil::SimTime when, uint64_t seq, const char* tag,
              uint64_t digest) {
    Entry& e = ring_[total_ % kCapacity];
    e.when = when;
    e.seq = seq;
    e.tag = tag;
    e.digest = digest;
    ++total_;
  }

  // Total events ever recorded (>= Trail().size()).
  uint64_t total_recorded() const { return total_; }

  // The retained entries, oldest first.
  std::vector<Entry> Trail() const;

  // Writes the trail to `out`, one event per line, newest last — the format
  // the audit-violation and CHECK-failure dumps use.
  void Dump(std::FILE* out) const;

 private:
  std::vector<Entry> ring_;
  uint64_t total_ = 0;
  bool enabled_ = true;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_SIMCORE_FLIGHT_RECORDER_H_
