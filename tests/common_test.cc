#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/simcore/rate_trace.h"

namespace monoutil {
namespace {

TEST(UnitsTest, ByteConstructors) {
  EXPECT_EQ(KiB(1), Bytes(1024));
  EXPECT_EQ(MiB(1), Bytes(1024 * 1024));
  EXPECT_EQ(GiB(2), Bytes(int64_t{2} * 1024 * 1024 * 1024));
  EXPECT_EQ(MiB(0.5), Bytes(512 * 1024));
}

TEST(UnitsTest, TimeConstructors) {
  EXPECT_DOUBLE_EQ(Millis(250).seconds(), 0.25);
  EXPECT_DOUBLE_EQ(Minutes(2).seconds(), 120.0);
}

TEST(UnitsTest, GbpsConvertsToBytesPerSecond) {
  EXPECT_NEAR(Gbps(1).bps(), 125e6, 1e-6);
}

// The wrappers must be bit-compatible with the typedefs they replaced: same
// size, same triviality, so struct layouts, memcpy-based digests, and codegen
// are unchanged by the promotion. These are the load-bearing guarantees behind
// the same-seed digest oracle in determinism_test.cc.
static_assert(sizeof(SimTime) == sizeof(double));
static_assert(sizeof(Bytes) == sizeof(int64_t));
static_assert(sizeof(BytesPerSecond) == sizeof(double));
static_assert(std::is_trivially_copyable_v<SimTime>);
static_assert(std::is_trivially_copyable_v<Bytes>);
static_assert(std::is_trivially_copyable_v<BytesPerSecond>);

// The closed algebra at compile time: each cross-type operation yields exactly
// the documented type (units.h header comment), nothing else.
static_assert(std::is_same_v<decltype(Bytes() / BytesPerSecond()), SimTime>);
static_assert(std::is_same_v<decltype(Bytes() / SimTime()), BytesPerSecond>);
static_assert(std::is_same_v<decltype(BytesPerSecond() * SimTime()), Bytes>);
static_assert(std::is_same_v<decltype(SimTime() * BytesPerSecond()), Bytes>);
static_assert(std::is_same_v<decltype(SimTime() / SimTime()), double>);
static_assert(std::is_same_v<decltype(Bytes() / Bytes()), double>);
static_assert(std::is_same_v<decltype(BytesPerSecond() / BytesPerSecond()),
                             double>);

TEST(UnitsAlgebraTest, TransferTimeRoundTripsAcrossRandomInputs) {
  // For any size b and rate r: t = b/r is the transfer time, the observed rate
  // b/t recovers r, and the data moved r*t recovers b (to within the one byte
  // the documented truncation may drop). Deterministic seeded sweep — no
  // entropy sources in tests.
  Rng rng(20260808);
  for (int i = 0; i < 1000; ++i) {
    const Bytes b(static_cast<int64_t>(rng.NextBelow(int64_t{1} << 36)) + 1);
    const BytesPerSecond r(rng.Uniform(1e3, 1e10));
    const SimTime t = b / r;
    EXPECT_GT(t, SimTime());
    EXPECT_NEAR((b / t) / r, 1.0, 1e-12);
    const Bytes moved = r * t;
    EXPECT_GE(moved, b - Bytes(1));
    EXPECT_LE(moved, b);
  }
}

TEST(UnitsAlgebraTest, SameTypeRatiosAreExactIdentities) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const SimTime t = Seconds(rng.Uniform(1e-9, 1e6));
    const Bytes b(static_cast<int64_t>(rng.NextBelow(uint64_t{1} << 40)) + 1);
    const BytesPerSecond r = MiBps(rng.Uniform(0.001, 4e4));
    EXPECT_DOUBLE_EQ(t / t, 1.0);
    EXPECT_DOUBLE_EQ(b / b, 1.0);
    EXPECT_DOUBLE_EQ(r / r, 1.0);
    // Scaling then unscaling is the identity (double math, exact for *2 / 2).
    EXPECT_EQ((t * 2.0) / 2.0, t);
    EXPECT_EQ((r * 2.0) / 2.0, r);
  }
}

TEST(UnitsAlgebraTest, AdditiveGroupMatchesUnderlyingRepresentation) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform(-1e6, 1e6);
    const double y = rng.Uniform(-1e6, 1e6);
    EXPECT_DOUBLE_EQ((Seconds(x) + Seconds(y)).seconds(), x + y);
    EXPECT_DOUBLE_EQ((Seconds(x) - Seconds(y)).seconds(), x - y);
    EXPECT_EQ(-(-Seconds(x)), Seconds(x));
    const auto bx = static_cast<int64_t>(rng.NextBelow(uint64_t{1} << 50));
    const auto by = static_cast<int64_t>(rng.NextBelow(uint64_t{1} << 50));
    EXPECT_EQ(Bytes(bx) + Bytes(by), Bytes(bx + by));
    EXPECT_EQ((Bytes(bx) - Bytes(by)).count(), bx - by);
    // Ordering agrees with the raw representation.
    EXPECT_EQ(Seconds(x) < Seconds(y), x < y);
    EXPECT_EQ(Bytes(bx) >= Bytes(by), bx >= by);
  }
}

TEST(UnitsAlgebraTest, ByteScalingTruncatesLikeInt64Arithmetic) {
  // The scalar ops on Bytes promise int64 semantics (truncation toward zero),
  // exactly what the pre-refactor arithmetic did — digest stability depends
  // on no rounding-mode drift here.
  EXPECT_EQ(Bytes(7) / 2, Bytes(3));
  EXPECT_EQ(Bytes(-7) / 2, Bytes(-3));
  EXPECT_EQ(Bytes(7) * 1.5, Bytes(10));    // 10.5 truncates to 10.
  EXPECT_EQ(1.5 * Bytes(7), Bytes(10));
  EXPECT_EQ(Bytes(10) % Bytes(4), Bytes(2));
  EXPECT_EQ(Bytes(3) * int64_t{4}, Bytes(12));
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(3.0, 5.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(7);
  bool seen[5] = {false, false, false, false, false};
  for (int i = 0; i < 1000; ++i) {
    seen[rng.NextBelow(5)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(RngTest, ExponentialHasApproximateMean) {
  Rng rng(99);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(4.0);
  }
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(StatsTest, OnlineStatsBasics) {
  OnlineStats stats;
  stats.Add(1.0);
  stats.Add(2.0);
  stats.Add(3.0);
  EXPECT_EQ(stats.count(), 3u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 3.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 6.0);
  EXPECT_NEAR(stats.variance(), 1.0, 1e-12);
}

TEST(StatsTest, EmptyStatsAreZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> samples{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median(samples), 2.5);
}

TEST(StatsTest, PercentileOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(StatsTest, BoxplotOrdersQuantiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) {
    samples.push_back(static_cast<double>(i));
  }
  const BoxplotSummary box = Boxplot(samples);
  EXPECT_LT(box.p5, box.p25);
  EXPECT_LT(box.p25, box.p50);
  EXPECT_LT(box.p50, box.p75);
  EXPECT_LT(box.p75, box.p95);
  EXPECT_NEAR(box.p50, 50.5, 1e-9);
}

TEST(StatsTest, BoxplotMatchesPercentileOnUnsortedInput) {
  // Boxplot sorts once internally; its quantiles must equal the per-call
  // Percentile ones regardless of input order, and the input stays untouched.
  const std::vector<double> samples{9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0};
  const std::vector<double> original = samples;
  const BoxplotSummary box = Boxplot(samples);
  EXPECT_DOUBLE_EQ(box.p5, Percentile(samples, 0.05));
  EXPECT_DOUBLE_EQ(box.p25, Percentile(samples, 0.25));
  EXPECT_DOUBLE_EQ(box.p50, Percentile(samples, 0.50));
  EXPECT_DOUBLE_EQ(box.p75, Percentile(samples, 0.75));
  EXPECT_DOUBLE_EQ(box.p95, Percentile(samples, 0.95));
  EXPECT_EQ(samples, original);
}

TEST(StatsTest, BoxplotOfEmptyIsZero) {
  const BoxplotSummary box = Boxplot({});
  EXPECT_DOUBLE_EQ(box.p5, 0.0);
  EXPECT_DOUBLE_EQ(box.p95, 0.0);
}

TEST(StatsTest, RelativeError) {
  EXPECT_DOUBLE_EQ(RelativeError(90.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(110.0, 100.0), 0.1);
}

TEST(StatsTest, RelativeErrorAgainstZeroActualIsZeroByContract) {
  // Pins the documented choice (stats.h): actual == 0 means "didn't run",
  // not "infinite error". Callers treating predicted != 0 vs actual == 0 as
  // disagreement must special-case it (CrossCheckWithTrace does).
  EXPECT_DOUBLE_EQ(RelativeError(5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RelativeError(0.0, 0.0), 0.0);
  EXPECT_FALSE(std::isnan(RelativeError(5.0, 0.0)));
}

TEST(TableTest, FormatsAlignedTable) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "22"});
  std::ostringstream out;
  table.Print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(1.234, 1), "1.2");
  EXPECT_EQ(FormatSeconds(Seconds(0.5)), "500.0 ms");
  EXPECT_EQ(FormatSeconds(Seconds(90.0)), "90.0 s");
  EXPECT_EQ(FormatSeconds(Minutes(10)), "10.0 min");
  EXPECT_EQ(FormatBytes(Bytes(512)), "512 B");
  EXPECT_EQ(FormatBytes(Bytes(1536)), "1.5 KiB");
  EXPECT_EQ(FormatBytes(GiB(2)), "2.00 GiB");
  EXPECT_EQ(FormatRate(MiBps(1.5)), "1.5 MiB/s");
  EXPECT_EQ(FormatRate(BytesPerSecond(512.0)), "512 B/s");
  EXPECT_EQ(FormatRate(GiBps(2.0)), "2.00 GiB/s");
}

}  // namespace
}  // namespace monoutil

namespace monosim {
namespace {

TEST(RateTraceTest, IntegratesStepFunction) {
  RateTrace trace;
  trace.Record(monoutil::Seconds(0.0), 10.0);
  trace.Record(monoutil::Seconds(1.0), 0.0);
  trace.Record(monoutil::Seconds(2.0), 5.0);
  // Last rate extends to the end of the integration window.
  EXPECT_NEAR(trace.Integrate(monoutil::Seconds(0.0), monoutil::Seconds(3.0)), 10.0 + 0.0 + 5.0, 1e-12);
  EXPECT_NEAR(trace.Integrate(monoutil::Seconds(0.5), monoutil::Seconds(1.5)), 5.0, 1e-12);
}

TEST(RateTraceTest, MeanUtilizationNormalizesByCapacity) {
  RateTrace trace;
  trace.Record(monoutil::Seconds(0.0), 50.0);
  trace.Record(monoutil::Seconds(1.0), 0.0);
  EXPECT_NEAR(trace.MeanUtilization(monoutil::Seconds(0.0), monoutil::Seconds(2.0), 100.0), 0.25, 1e-12);
}

TEST(RateTraceTest, RateAtReturnsStepValue) {
  RateTrace trace;
  trace.Record(monoutil::Seconds(1.0), 3.0);
  trace.Record(monoutil::Seconds(2.0), 7.0);
  EXPECT_DOUBLE_EQ(trace.RateAt(monoutil::Seconds(0.5)), 0.0);
  EXPECT_DOUBLE_EQ(trace.RateAt(monoutil::Seconds(1.5)), 3.0);
  EXPECT_DOUBLE_EQ(trace.RateAt(monoutil::Seconds(2.0)), 7.0);
}

TEST(RateTraceTest, SameTimeUpdateOverwrites) {
  RateTrace trace;
  trace.Record(monoutil::Seconds(1.0), 3.0);
  trace.Record(monoutil::Seconds(1.0), 9.0);
  EXPECT_DOUBLE_EQ(trace.RateAt(monoutil::Seconds(1.0)), 9.0);
  EXPECT_EQ(trace.points().size(), 1u);
}

TEST(RateTraceTest, RedundantUpdatesCoalesce) {
  RateTrace trace;
  trace.Record(monoutil::Seconds(0.0), 5.0);
  trace.Record(monoutil::Seconds(1.0), 5.0);
  EXPECT_EQ(trace.points().size(), 1u);
}

TEST(RateTraceTest, SampleWindows) {
  RateTrace trace;
  trace.Record(monoutil::Seconds(0.0), 100.0);
  trace.Record(monoutil::Seconds(1.0), 0.0);
  const auto windows = trace.SampleWindows(monoutil::Seconds(0.0), monoutil::Seconds(2.0), monoutil::Seconds(0.5), 100.0);
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_NEAR(windows[0], 1.0, 1e-12);
  EXPECT_NEAR(windows[1], 1.0, 1e-12);
  EXPECT_NEAR(windows[2], 0.0, 1e-12);
  EXPECT_NEAR(windows[3], 0.0, 1e-12);
}

TEST(RateTraceTest, SampleWindowsIncludesTrailingPartialWindow) {
  // [0, 1.25) with step 0.5: two full windows plus the partial [1.0, 1.25). The
  // partial window is included (dropping it would silently truncate a job's last
  // seconds from every utilization series) and is averaged over its own 0.25 s
  // length, not the nominal step.
  RateTrace trace;
  trace.Record(monoutil::Seconds(0.0), 100.0);
  trace.Record(monoutil::Seconds(1.125), 0.0);
  const auto windows = trace.SampleWindows(monoutil::Seconds(0.0), monoutil::Seconds(1.25), monoutil::Seconds(0.5), 100.0);
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_NEAR(windows[0], 1.0, 1e-12);
  EXPECT_NEAR(windows[1], 1.0, 1e-12);
  // Busy for 0.125 s of the 0.25 s partial window.
  EXPECT_NEAR(windows[2], 0.5, 1e-12);
}

TEST(RateTraceTest, ForcedPointSurvivesEqualRateDedup) {
  RateTrace trace;
  trace.Record(monoutil::Seconds(0.0), 5.0);
  trace.Record(monoutil::Seconds(1.0), 5.0);  // Redundant: coalesced.
  trace.Record(monoutil::Seconds(2.0), 5.0, /*force_point=*/true);
  ASSERT_EQ(trace.points().size(), 2u);
  EXPECT_DOUBLE_EQ(trace.points()[1].time.seconds(), 2.0);
  EXPECT_DOUBLE_EQ(trace.points()[1].rate, 5.0);
}

}  // namespace
}  // namespace monosim
