// Always-on aggregation telemetry: latency histograms, complementing the
// opt-in Tracer.
//
// The Tracer answers "what happened when" and costs a span per event, so it is
// gated behind MONO_TRACE. At millions of monotasks per run that is
// unaffordable to leave on, yet per-resource queue waits and service times
// need percentile-grade latency visibility in *every* run. This header is the
// always-on layer: LatencyHistogram, log-bucketed counts with lock-free Add
// (one relaxed fetch_add on an atomic bucket) and quantile queries with bounded
// relative error (~1/kSubBuckets per bucket).
//
// Histograms are hosted in the MetricsRegistry (metrics_registry.h) next to
// the counters; instrumentation sites resolve once and Add forever:
//
//   static LatencyHistogram* wait =
//       MetricsRegistry::Global().Histogram("mono.cpu.queue_wait_seconds");
//   wait->Add(now - enqueued);
//
// TelemetryEnabled() is the kill switch the overhead gate flips: hook sites
// are expected to stay under 5% of the simcore bench with it on (CI enforces
// this via tools/perf_gate.py --pair), and recording never schedules events,
// so same-seed event digests are identical with telemetry on or off
// (tests/telemetry_test.cc pins both).
//
// TelemetrySnapshot is the single JSON schema every bench and the mono_stat
// tool publish: counters and histogram summaries (count/sum/quantiles), sorted
// by name so diffs are stable.
#ifndef MONOTASKS_SRC_COMMON_TRACING_TELEMETRY_H_
#define MONOTASKS_SRC_COMMON_TRACING_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

namespace monotrace {

// Global enable for the always-on layer. Defaults to on; the overhead bench
// variants and tests flip it. Hook sites built on the registry check it once
// per record via TelemetryEnabled() (a relaxed load, same cost discipline as
// Tracer::current()).
bool TelemetryEnabled();
void SetTelemetryEnabled(bool enabled);

// Log-bucketed latency/size histogram.
//
// Values are bucketed by binary exponent with kSubBuckets linear sub-buckets
// per octave, covering [kMinValue, kMaxValue); values outside clamp to the
// first/last bucket. With 8 sub-buckets the worst-case relative quantile error
// is ~12.5%, comfortably inside the 5-percentile-grade the benches report.
// All counts are relaxed atomics: Add is wait-free and thread-safe, totals are
// eventually consistent under concurrent readers (exact once writers quiesce,
// which is when snapshots are taken).
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 8;       // Linear steps per octave.
  static constexpr int kOctaves = 64;         // 2^-30 .. 2^34 around 1.0.
  static constexpr int kNumBuckets = kOctaves * kSubBuckets;
  static constexpr double kMinValue = 9.313225746154785e-10;  // 2^-30.

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  // Records one sample. Negative and NaN samples clamp to the lowest bucket
  // (they indicate a caller bug but must never corrupt the histogram).
  void Add(double value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    // Sum as a CAS loop like MetricCounter: quantiles come from the buckets,
    // the exact sum feeds mean and totals.
    double observed = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(observed, observed + value,
                                       std::memory_order_relaxed)) {
    }
  }

  // Total recorded samples.
  uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  // The q-quantile (q in [0,1]) estimated from the bucket midpoints; 0 when
  // empty. Relative error bounded by the sub-bucket width.
  double Quantile(double q) const;

  // Upper edge of the highest / lowest non-empty bucket (0 when empty):
  // cheap max/min witnesses for summaries.
  double MaxEstimate() const;
  double MinEstimate() const;

  // Zeroes every bucket (tests; mirrors MetricCounter::Reset).
  void Reset();

  // Maps a value to its bucket. Exposed for tests pinning the bucketing.
  static int BucketIndex(double value);
  // Representative (geometric midpoint) value of a bucket.
  static double BucketValue(int index);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<double> sum_{0.0};
};

// ---- Snapshot schema ----

struct HistogramSummary {
  uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

// The single JSON-serializable schema all benches and tools publish. Maps are
// name-sorted so emitted JSON is diff-stable.
struct TelemetrySnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, HistogramSummary> histograms;

  // {"counters": {...}, "histograms": {...}} with summaries
  // inlined. `indent` spaces prefix every line (for embedding in bench JSON).
  std::string ToJson(int indent = 0) const;
};

// True if the MONO_TELEMETRY environment variable names an output path
// (non-empty, not "0").
bool TelemetrySinkRequestedByEnv();

// When MONO_TELEMETRY=<path> is set, registers (once) an atexit hook that
// writes MetricsRegistry::Global()'s TelemetrySnapshot JSON to <path>.
// Process-lifetime like InstallEnvTracerOnce: a bench's runs all fold into
// one snapshot, which is exactly what mergeable aggregation is for.
void InstallEnvTelemetrySinkOnce();

}  // namespace monotrace

#endif  // MONOTASKS_SRC_COMMON_TRACING_TELEMETRY_H_
