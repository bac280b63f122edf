// Unit tests for the simulated per-resource monotask schedulers (§3.3) and the
// buffer cache's synchronous-write mode.
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/buffer_cache.h"
#include "src/cluster/machine.h"
#include "src/monotask/resource_schedulers.h"
#include "src/simcore/simulation.h"

namespace monosim {
namespace {

class SchedulerSimTest : public ::testing::Test {
 protected:
  SchedulerSimTest() {
    MachineConfig config;
    config.cores = 2;
    DiskConfig disk;
    disk.bandwidth = monoutil::BytesPerSecond(100.0);  // 100 B/s.
    config.disks = {disk, disk};
    machine_ = std::make_unique<MachineSim>(&sim_, 0, config);
  }

  Simulation sim_;
  std::unique_ptr<MachineSim> machine_;
};

TEST_F(SchedulerSimTest, CpuSchedulerRunsAtMostCoreCount) {
  SlotSchedulerSim scheduler(&sim_, machine_.get());
  EXPECT_EQ(scheduler.max_concurrency(), 2);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    scheduler.Enqueue(1.0, [&](SimTime service, SimTime wait) {
      EXPECT_NEAR(service.seconds(), 1.0, 1e-9);  // Never contended: exactly the work.
      EXPECT_GE(wait.seconds(), 0.0);
      ++done;
    });
  }
  EXPECT_EQ(scheduler.running(), 2);
  EXPECT_EQ(scheduler.queue_length(), 3);
  sim_.Run();
  EXPECT_EQ(done, 5);
  // 5 monotasks of 1 s on 2 cores: 3 serial rounds.
  EXPECT_NEAR(sim_.now().seconds(), 3.0, 1e-9);
}

TEST_F(SchedulerSimTest, CpuServiceTimeExcludesQueueing) {
  SlotSchedulerSim scheduler(&sim_, machine_.get());
  std::vector<double> services;
  std::vector<double> waits;
  for (int i = 0; i < 4; ++i) {
    scheduler.Enqueue(2.0, [&](SimTime service, SimTime wait) {
      services.push_back(service.seconds());
      waits.push_back(wait.seconds());
    });
  }
  sim_.Run();
  for (double service : services) {
    EXPECT_NEAR(service, 2.0, 1e-9);  // The queued ones waited 2 s but served 2 s.
  }
  // Two cores: the first pair never waited, the second pair queued for 2 s.
  ASSERT_EQ(waits.size(), 4u);
  EXPECT_NEAR(waits[0], 0.0, 1e-9);
  EXPECT_NEAR(waits[1], 0.0, 1e-9);
  EXPECT_NEAR(waits[2], 2.0, 1e-9);
  EXPECT_NEAR(waits[3], 2.0, 1e-9);
}

TEST_F(SchedulerSimTest, DiskSchedulerRunsOneAtATimeOnHdd) {
  SlotSchedulerSim scheduler(&sim_, &machine_->disk(0), /*slots=*/1);
  std::vector<double> services;
  std::vector<double> waits;
  auto record = [&](SimTime s, SimTime w) {
    services.push_back(s.seconds());
    waits.push_back(w.seconds());
  };
  scheduler.EnqueueRead(DiskPhase::kRead, monoutil::Bytes(100), record);
  scheduler.EnqueueRead(DiskPhase::kRead, monoutil::Bytes(100), record);
  EXPECT_EQ(scheduler.running(), 1);
  EXPECT_EQ(scheduler.queue_length(), 1);
  sim_.Run();
  // One at a time at full bandwidth: each is served in exactly 1 s despite the
  // HDD's seek penalty under concurrency — the design's whole point.
  ASSERT_EQ(services.size(), 2u);
  EXPECT_NEAR(services[0], 1.0, 1e-9);
  EXPECT_NEAR(services[1], 1.0, 1e-9);
  EXPECT_NEAR(waits[0], 0.0, 1e-9);
  EXPECT_NEAR(waits[1], 1.0, 1e-9);  // Queued behind the first read.
  EXPECT_NEAR(sim_.now().seconds(), 2.0, 1e-9);
}

TEST_F(SchedulerSimTest, DiskSchedulerRoundRobinsPhases) {
  SlotSchedulerSim scheduler(&sim_, &machine_->disk(0), 1);
  std::vector<std::string> order;
  auto record = [&](std::string label) {
    return [&order, label](SimTime, SimTime) { order.push_back(label); };
  };
  // Seed a running monotask, then queue writes before reads.
  scheduler.EnqueueWrite(monoutil::Bytes(100), record("w0"));
  scheduler.EnqueueWrite(monoutil::Bytes(100), record("w1"));
  scheduler.EnqueueWrite(monoutil::Bytes(100), record("w2"));
  scheduler.EnqueueRead(DiskPhase::kRead, monoutil::Bytes(100), record("r0"));
  scheduler.EnqueueRead(DiskPhase::kServe, monoutil::Bytes(100), record("s0"));
  sim_.Run();
  ASSERT_EQ(order.size(), 5u);
  // After w0, the round-robin must visit the read and serve queues before draining
  // the remaining writes (no write convoy).
  EXPECT_EQ(order[1], "s0");
  EXPECT_EQ(order[2], "r0");
  EXPECT_EQ(order[3], "w1");
}

TEST_F(SchedulerSimTest, FifoAblationDrainsWritesFirst) {
  SlotSchedulerSim scheduler(&sim_, &machine_->disk(0), 1, /*fifo=*/true);
  std::vector<std::string> order;
  auto record = [&](std::string label) {
    return [&order, label](SimTime, SimTime) { order.push_back(label); };
  };
  scheduler.EnqueueWrite(monoutil::Bytes(100), record("w0"));
  scheduler.EnqueueWrite(monoutil::Bytes(100), record("w1"));
  scheduler.EnqueueRead(DiskPhase::kRead, monoutil::Bytes(100), record("r0"));
  sim_.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"w0", "w1", "r0"}));
}

TEST_F(SchedulerSimTest, SsdSchedulerAllowsMultipleOutstanding) {
  SlotSchedulerSim scheduler(&sim_, &machine_->disk(0), /*slots=*/4);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    scheduler.EnqueueRead(DiskPhase::kRead, monoutil::Bytes(100),
                          [&](SimTime, SimTime) { ++done; });
  }
  EXPECT_EQ(scheduler.running(), 4);
  sim_.Run();
  EXPECT_EQ(done, 4);
}

TEST(NetworkSchedulerSimTest, GatesConcurrentFetchSets) {
  Simulation sim;
  NetworkSchedulerSim scheduler(&sim, /*multitask_limit=*/2);
  // Fetch set i asks for admission at t = i s; slots are released at the times
  // below, each handing its slot to the oldest waiter.
  constexpr int kFetchSets = 5;
  const std::vector<double> release_at = {10.0, 12.0, 15.0, 20.0, 21.0};
  std::vector<double> granted_at(kFetchSets, -1.0);
  std::vector<double> waits(kFetchSets, -1.0);
  for (int i = 0; i < kFetchSets; ++i) {
    sim.ScheduleAt(monoutil::Seconds(i), [&, i] {
      scheduler.Acquire([&, i](SimTime wait) {
        granted_at[static_cast<size_t>(i)] = sim.now().seconds();
        waits[static_cast<size_t>(i)] = wait.seconds();
      });
    });
  }
  sim.ScheduleAt(monoutil::Seconds(5.0), [&] {
    EXPECT_EQ(scheduler.active(), 2);
    EXPECT_EQ(scheduler.queue_length(), 3);
  });
  for (const double t : release_at) {
    sim.ScheduleAt(monoutil::Seconds(t), [&] { scheduler.Release(); });
  }
  sim.ScheduleAt(monoutil::Seconds(11.0), [&] {
    EXPECT_EQ(scheduler.active(), 2);  // The slot transferred to a waiter.
    EXPECT_EQ(scheduler.queue_length(), 2);
  });
  sim.Run();
  EXPECT_EQ(scheduler.active(), 0);
  // The first two are admitted on arrival; each queued one when a slot frees.
  EXPECT_EQ(granted_at, (std::vector<double>{0.0, 1.0, 10.0, 12.0, 15.0}));
  for (int i = 0; i < kFetchSets; ++i) {
    const auto k = static_cast<size_t>(i);
    // The reported wait is the grant (Release) time minus the Acquire time.
    EXPECT_EQ(waits[k], granted_at[k] - static_cast<double>(i)) << "fetch set " << i;
  }
  EXPECT_EQ(waits, (std::vector<double>{0.0, 0.0, 8.0, 9.0, 11.0}));
}

// The sync tests run on an HDD that writes one buffer-cache flush chunk per
// second; a lone flush runs at full bandwidth.
DiskConfig ChunkPerSecondDisk() {
  DiskConfig config = DiskConfig::Hdd();
  config.bandwidth = BufferCacheSim::kFlushChunk / monoutil::Seconds(1.0);
  return config;
}

TEST(BufferCacheSyncTest, WriteSyncCompletesOnlyWhenDurable) {
  Simulation sim;
  DiskSim disk(&sim, "d0", ChunkPerSecondDisk());
  BufferCacheSim cache(&sim, {&disk});
  const monoutil::Bytes bytes = BufferCacheSim::kFlushChunk * int64_t{2};

  double done_at = -1.0;
  cache.WriteSync(0, bytes, [&] { done_at = sim.now().seconds(); });
  sim.Run();
  // Two chunks at one chunk per second must take >= 2 s even though they went
  // through the cache.
  EXPECT_GE(done_at, 2.0 - 1e-9);
  EXPECT_EQ(disk.bytes_written(), bytes);
}

TEST(BufferCacheSyncTest, SyncWritersCompleteInOrderPerDisk) {
  Simulation sim;
  DiskSim disk(&sim, "d0", ChunkPerSecondDisk());
  BufferCacheSim cache(&sim, {&disk});
  const monoutil::Bytes bytes = BufferCacheSim::kFlushChunk * int64_t{2};

  std::vector<int> order;
  cache.WriteSync(0, bytes, [&] { order.push_back(1); });
  cache.WriteSync(0, bytes, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(cache.total_flushed(), bytes * int64_t{2});
}

TEST(BufferCacheSyncTest, AsyncAndSyncWritesCoexist) {
  Simulation sim;
  DiskSim disk(&sim, "d0", ChunkPerSecondDisk());
  BufferCacheSim cache(&sim, {&disk});
  const monoutil::Bytes bytes = BufferCacheSim::kFlushChunk;

  double async_done = -1.0;
  double sync_done = -1.0;
  cache.Write(0, bytes, [&] { async_done = sim.now().seconds(); });
  cache.WriteSync(0, bytes, [&] { sync_done = sim.now().seconds(); });
  sim.Run();
  EXPECT_LT(async_done, 0.1);  // Memory speed.
  // The sync write waits for both its own bytes and the earlier dirty bytes.
  EXPECT_GE(sync_done, 2.0 - 1e-9);
}

}  // namespace
}  // namespace monosim
