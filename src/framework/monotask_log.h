// MonotaskLog: per-monotask lifecycle records, always on, trace-free.
//
// Every monotask's life has three measurable segments:
//
//   ready ──(queue wait)──► dispatch ──(service)──► done
//
// where `ready` is when its dependencies were met and it entered a resource
// scheduler's queue, `dispatch` is when the resource started working on it,
// and `done` is completion. The simulated monotasks executor builds exactly
// one MonotaskRecord per monotask, at its completion, and derives all of its
// per-monotask views from that record: the stage's MonotaskTimes, this log,
// the trace span and the latency histograms — the paper's §3.1 point that
// this instrumentation falls out of the architecture for free, because each
// monotask uses exactly one resource.
//
// Unlike the Tracer (opt-in, unbounded, wall-format JSON), the log is a plain
// bounded vector of PODs: the critical-path analyzer (src/model) walks it to
// attribute end-to-end runtime to resources without MONO_TRACE ever being set.
// When the cap is reached further records are counted as dropped rather than
// grown — analyses must check dropped() before claiming completeness.
#ifndef MONOTASKS_SRC_FRAMEWORK_MONOTASK_LOG_H_
#define MONOTASKS_SRC_FRAMEWORK_MONOTASK_LOG_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"

namespace monosim {

// Which physical resource the monotask occupied. Matches the trace categories
// ("cpu" / "disk" / "network") so blame computed from the log can be
// cross-checked against trace_report.
enum class MonoResource { kCpu = 0, kDisk = 1, kNetwork = 2 };

inline const char* MonoResourceName(MonoResource r) {
  switch (r) {
    case MonoResource::kCpu:
      return "cpu";
    case MonoResource::kDisk:
      return "disk";
    case MonoResource::kNetwork:
      return "network";
  }
  return "?";
}

struct MonotaskRecord {
  uint64_t dispatch_id = 0;  // Executor dispatch id of the owning multitask.
  int stage_index = 0;
  int machine = 0;           // Machine whose resource did the work.
  MonoResource resource = MonoResource::kCpu;
  const char* phase = "";    // "disk-read", "compute", "flow", ... (literal).
  monoutil::SimTime ready;
  monoutil::SimTime dispatch;
  monoutil::SimTime done;

  monoutil::SimTime queue_wait() const { return dispatch - ready; }
  monoutil::SimTime service() const { return done - dispatch; }
};

// The log's memory, and with it the peak RSS of every traced run, scales with
// this size: widen the record only deliberately.
static_assert(sizeof(MonotaskRecord) <= 56, "MonotaskRecord must not grow");

class MonotaskLog {
 public:
  // Default cap: 1M records of 56 bytes ≈ 56 MiB, far beyond any workload in
  // the repo but a hard bound nonetheless.
  static constexpr size_t kDefaultCapacity = 1 << 20;

  explicit MonotaskLog(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  MonotaskLog(const MonotaskLog&) = delete;
  MonotaskLog& operator=(const MonotaskLog&) = delete;

  void Record(const MonotaskRecord& record) {
    if (records_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    records_.push_back(record);
  }

  const std::vector<MonotaskRecord>& records() const { return records_; }
  uint64_t dropped() const { return dropped_; }

 private:
  size_t capacity_;
  std::vector<MonotaskRecord> records_;
  uint64_t dropped_ = 0;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_FRAMEWORK_MONOTASK_LOG_H_
