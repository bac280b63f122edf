// Tests for the always-on telemetry layer (telemetry.h, flight_recorder.h):
// histogram bucketing and quantile error bounds, merge semantics, the
// multi-threaded Add hammer (run under TSan in CI), the registry snapshot, the
// flight recorder ring, and the digest-invariance contract — same-seed runs
// must produce identical event-stream digests with telemetry on or off.
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/telemetry.h"
#include "src/framework/environment.h"
#include "src/monotask/mono_executor.h"
#include "src/simcore/flight_recorder.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"

namespace monotrace {
namespace {

// Restores the global telemetry switch so a failing test can't poison others.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(bool enabled) : was_(TelemetryEnabled()) {
    SetTelemetryEnabled(enabled);
  }
  ~ScopedTelemetry() { SetTelemetryEnabled(was_); }

 private:
  bool was_;
};

TEST(LatencyHistogramTest, BucketIndexIsMonotone) {
  int last = -1;
  for (double v = LatencyHistogram::kMinValue; v < 1e9; v *= 1.04) {
    const int index = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(index, last) << "at value " << v;
    EXPECT_LT(index, LatencyHistogram::kNumBuckets);
    last = index;
  }
}

TEST(LatencyHistogramTest, BucketValueRoundTrips) {
  // The representative value of a bucket must map back into that bucket.
  for (int i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(LatencyHistogram::BucketValue(i)), i)
        << "bucket " << i;
  }
}

TEST(LatencyHistogramTest, PathologicalSamplesClampToLowestBucket) {
  LatencyHistogram h;
  h.Add(-1.0);
  h.Add(0.0);
  h.Add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 3u);
  // All three landed in bucket 0: the quantile witness is the smallest value.
  EXPECT_LE(h.Quantile(1.0), LatencyHistogram::BucketValue(0) * 2);
}

TEST(LatencyHistogramTest, QuantileWithinRelativeErrorBound) {
  LatencyHistogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Add(static_cast<double>(i) * 1e-3);  // Uniform on (0, 10].
  }
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.sum(), 50005.0 * 1e-3 * 1000, 1e-6);
  // Log-bucketed with 8 sub-buckets: worst-case relative error ~12.5%.
  EXPECT_NEAR(h.Quantile(0.5), 5.0, 5.0 * 0.13);
  EXPECT_NEAR(h.Quantile(0.9), 9.0, 9.0 * 0.13);
  EXPECT_NEAR(h.Quantile(0.99), 9.9, 9.9 * 0.13);
}

TEST(LatencyHistogramTest, ResetZeroes) {
  LatencyHistogram h;
  h.Add(1.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

// The TSan target: concurrent Add on one histogram and one counter from many
// threads must be race-free and lose no samples (Adds are relaxed atomics).
TEST(LatencyHistogramTest, ConcurrentAddsLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 50000;
  LatencyHistogram h;
  MetricCounter counter;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &counter, t] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        h.Add(1e-3 * static_cast<double>(1 + ((t + i) % 1000)));
        counter.Add(1.0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kAddsPerThread);
  EXPECT_DOUBLE_EQ(counter.value(), static_cast<double>(kThreads) * kAddsPerThread);
}

TEST(MetricsRegistryTest, SnapshotCarriesCountersAndHistograms) {
  MetricsRegistry registry;
  registry.Get("test.counter")->Add(7.0);
  registry.Histogram("test.hist")->Add(0.5);
  const TelemetrySnapshot snap = registry.TakeTelemetrySnapshot();
  ASSERT_EQ(snap.counters.count("test.counter"), 1u);
  EXPECT_DOUBLE_EQ(snap.counters.at("test.counter"), 7.0);
  ASSERT_EQ(snap.histograms.count("test.hist"), 1u);
  EXPECT_EQ(snap.histograms.at("test.hist").count, 1u);
  // The JSON form mentions each name and parses as one object per line family.
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"test.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);
}

TEST(MetricsRegistryTest, DisabledTelemetryStillCountsExplicitAdds) {
  // The kill switch gates *hook sites*, not the instruments: code that calls
  // Add directly still records. This pins that SetTelemetryEnabled(false)
  // never needs invasive plumbing — sites just check TelemetryEnabled().
  ScopedTelemetry off(false);
  MetricsRegistry registry;
  registry.Histogram("direct")->Add(1.0);
  EXPECT_EQ(registry.Histogram("direct")->count(), 1u);
}

TEST(FlightRecorderTest, RingKeepsNewestEntries) {
  monosim::FlightRecorder recorder;
  for (uint64_t i = 0; i < monosim::FlightRecorder::kCapacity + 10; ++i) {
    recorder.Record(monoutil::SimTime(static_cast<double>(i)), i, "evt", i);
  }
  EXPECT_EQ(recorder.total_recorded(),
            monosim::FlightRecorder::kCapacity + 10);
  const auto trail = recorder.Trail();
  ASSERT_EQ(trail.size(), monosim::FlightRecorder::kCapacity);
  // Oldest first: the first retained entry is #10, the last is the newest.
  EXPECT_EQ(trail.front().seq, 10u);
  EXPECT_EQ(trail.back().seq, monosim::FlightRecorder::kCapacity + 9);
}

// Runs the same small sort job under the monotasks executor and returns its
// event-stream digest.
uint64_t SortDigest() {
  monosim::SimEnvironment env(monoload::SmallHddClusterConfig());
  monosim::MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
  env.AttachExecutor(&executor);
  monoload::SortParams params;
  params.total_bytes = monoutil::GiB(1);
  return env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), params)).sim_digest;
}

// The contract the bench also enforces: telemetry observes the schedule but
// never changes it, so same-seed digests are bit-identical on vs. off.
TEST(TelemetryDigestTest, SameSeedDigestIdenticalOnVsOff) {
  uint64_t digest_on = 0;
  uint64_t digest_off = 0;
  {
    ScopedTelemetry on(true);
    digest_on = SortDigest();
  }
  {
    ScopedTelemetry off(false);
    digest_off = SortDigest();
  }
  EXPECT_EQ(digest_on, digest_off);
  EXPECT_NE(digest_on, 0u);
}

}  // namespace
}  // namespace monotrace
