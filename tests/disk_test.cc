// Unit tests for the simulated disk (src/cluster/disk.h). The HDD seek penalty,
// the contention weights and the flash capacity curve are calibration constants
// in disk.cc, not settable options; these tests pin each one through an exact
// service time on a 100 B/s device, and the HDD's at its stock bandwidth too.
#include "src/cluster/disk.h"

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "src/simcore/simulation.h"

namespace monosim {
namespace {

using monoutil::Bytes;

enum class Op { kRead, kWrite };

// Submits one `request`-sized request per entry of `ops`, in order at t = 0,
// and returns each request's completion time in seconds.
std::vector<double> RunAtOnce(const DiskConfig& config, const std::vector<Op>& ops,
                              Bytes request = Bytes(100)) {
  Simulation sim;
  DiskSim disk(&sim, "d0", config);
  std::vector<double> done(ops.size(), -1.0);
  for (size_t i = 0; i < ops.size(); ++i) {
    auto record = [&sim, &done, i] { done[i] = sim.now().seconds(); };
    if (ops[i] == Op::kRead) {
      disk.Read(request, record);
    } else {
      disk.Write(request, record);
    }
  }
  sim.Run();
  return done;
}

DiskConfig Hdd() {
  DiskConfig config = DiskConfig::Hdd();
  config.bandwidth = monoutil::BytesPerSecond(100.0);
  return config;
}

DiskConfig Ssd() {
  DiskConfig config = DiskConfig::Ssd();
  config.bandwidth = monoutil::BytesPerSecond(100.0);
  return config;
}

void ExpectAllDoneAt(const std::vector<double>& done, double seconds) {
  for (const double t : done) {
    EXPECT_NEAR(t, seconds, 1e-9);
  }
}

TEST(DiskSimTest, HddSequentialReadersAreNearlyFree) {
  // Four reads weigh 4 x 0.25 = 1: no seek penalty, 100 B/s shared four ways.
  ExpectAllDoneAt(RunAtOnce(Hdd(), {Op::kRead, Op::kRead, Op::kRead, Op::kRead}), 4.0);
}

TEST(DiskSimTest, HddWritesAloneAreBatched) {
  // Four writes with no read in service weigh 4 x 0.3 = 1.2: with the seek
  // penalty 0.2, 100 / (1 + 0.2 * 0.2) B/s for 400 B.
  ExpectAllDoneAt(RunAtOnce(Hdd(), {Op::kWrite, Op::kWrite, Op::kWrite, Op::kWrite}),
                  4.16);
}

TEST(DiskSimTest, HddWriteInterleavedWithReadThrashes) {
  // A write submitted while a read is in service weighs 6: total 6.25, so
  // 100 / (1 + 0.2 * 5.25) B/s for 200 B.
  ExpectAllDoneAt(RunAtOnce(Hdd(), {Op::kRead, Op::kWrite}), 4.1);
}

TEST(DiskSimTest, StockHddWithReadAndWriteInServiceRunsAtTheSeekPenalizedCapacity) {
  // DiskConfig::Hdd() as the presets build it: 90 MiB/s. A read and a mixed
  // write weigh 0.25 + 6 = 6.25, so the disk runs at 90 MiB/s / (1 + 0.2 * 5.25),
  // 2.05 times slower than one stream: two 90 MiB requests take 2 x 2.05 s.
  const DiskConfig config = DiskConfig::Hdd();
  ASSERT_EQ(config.bandwidth, monoutil::MiBps(90));
  ExpectAllDoneAt(RunAtOnce(config, {Op::kRead, Op::kWrite}, monoutil::MiB(90)), 4.1);
}

TEST(DiskSimTest, SsdSingleStreamGetsAFractionOfPeak) {
  // One read (weight 0.25) gets 55% of peak.
  ExpectAllDoneAt(RunAtOnce(Ssd(), {Op::kRead}), 100.0 / 55.0);
}

TEST(DiskSimTest, SsdRampsTowardPeakOverFourChannels) {
  // Four solo writes weigh 1.2. The ramp runs from 55% of peak at weight 1 to
  // 100% at four channels: 0.55 + 0.45 * 0.2 / 3 = 58% of peak for 400 B.
  ExpectAllDoneAt(RunAtOnce(Ssd(), {Op::kWrite, Op::kWrite, Op::kWrite, Op::kWrite}),
                  400.0 / 58.0);
}

}  // namespace
}  // namespace monosim
