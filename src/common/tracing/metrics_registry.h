// MetricsRegistry: process-global named counters and histograms.
//
// Where the Tracer records *when* things happened, the registry keeps cheap
// always-on aggregates — events fired, tasks completed, bytes flushed, and
// (via telemetry.h) latency distributions — that examples and benches can
// publish without enabling tracing. Counters are
// doubles (byte and second totals overflow int64 semantics awkwardly) and
// additions are lock-free CAS loops, so instrumented code may add from the
// threaded engine's scheduler threads; histogram Adds are single relaxed
// fetch_adds (see telemetry.h).
//
// Usage at an instrumentation site (resolve once, add many times):
//
//   MetricCounter* flushed = MetricsRegistry::Global().Get("cache.bytes_flushed");
//   LatencyHistogram* wait =
//       MetricsRegistry::Global().Histogram("mono.cpu.queue_wait_seconds");
//   ...
//   flushed->Add(flush_bytes);
//   wait->Add(now - enqueued);
//
// Get()/Histogram() return stable pointers for the life of the registry;
// instruments are never removed. ResetForTest() zeroes (not removes)
// everything so tests can assert deltas without coordinating names.
#ifndef MONOTASKS_SRC_COMMON_TRACING_METRICS_REGISTRY_H_
#define MONOTASKS_SRC_COMMON_TRACING_METRICS_REGISTRY_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "src/common/tracing/telemetry.h"

namespace monotrace {

class MetricCounter {
 public:
  MetricCounter() = default;
  MetricCounter(const MetricCounter&) = delete;
  MetricCounter& operator=(const MetricCounter&) = delete;

  void Add(double delta) {
    double observed = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(observed, observed + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void Increment() { Add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Returns the counter named `name`, creating it at zero on first use. The
  // pointer stays valid for the registry's lifetime.
  MetricCounter* Get(const std::string& name);

  // Returns the histogram named `name`, creating it empty on first
  // use. Pointers stay valid for the registry's lifetime, so instrumentation
  // sites may cache them in function-local statics.
  LatencyHistogram* Histogram(const std::string& name);

  // Current value of `name` (0 if never created).
  double Value(const std::string& name) const;

  // Name -> value snapshot of the counters only, sorted by name.
  std::map<std::string, double> Snapshot() const;

  // Full snapshot: counters plus histogram summaries. The single
  // schema benches and examples/mono_stat publish (telemetry.h).
  TelemetrySnapshot TakeTelemetrySnapshot() const;

  // Zeroes every instrument (registrations survive, cached pointers stay
  // valid).
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  // std::map: node-based, so returned pointers survive later inserts.
  std::map<std::string, MetricCounter> counters_;
  std::map<std::string, LatencyHistogram> histograms_;
};

}  // namespace monotrace

#endif  // MONOTASKS_SRC_COMMON_TRACING_METRICS_REGISTRY_H_
