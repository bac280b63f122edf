#include "src/cluster/buffer_cache.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/cluster/disk.h"
#include "src/cluster/machine.h"
#include "src/simcore/simulation.h"

namespace monosim {
namespace {

using monoutil::Bytes;

constexpr Bytes kDirtyLimit = BufferCacheSim::kDirtyLimit;
constexpr Bytes kChunk = BufferCacheSim::kFlushChunk;
constexpr SimTime kDelay = BufferCacheSim::kWritebackDelay;
constexpr monoutil::BytesPerSecond kMemory = BufferCacheSim::kMemoryBandwidth;

// `n` flush chunks.
Bytes Chunks(int64_t n) { return kChunk * n; }

// Seconds a cached write of `bytes` takes to complete at memory speed.
double CopySeconds(Bytes bytes) { return (bytes / kMemory).seconds(); }

class BufferCacheTest : public ::testing::Test {
 protected:
  // HDDs that write one flush chunk per second. A lone request runs at full
  // bandwidth (the seek penalty needs a contention weight above 1), and the
  // flusher keeps one flush per disk, so without foreground reads every flush
  // takes exactly 1 s.
  void MakeCache(int num_disks = 1) {
    DiskConfig disk_config = DiskConfig::Hdd();
    disk_config.bandwidth = kChunk / monoutil::Seconds(1.0);
    std::vector<DiskSim*> raw;
    for (int d = 0; d < num_disks; ++d) {
      disks_.push_back(
          std::make_unique<DiskSim>(&sim_, "disk" + std::to_string(d), disk_config));
      raw.push_back(disks_.back().get());
    }
    cache_ = std::make_unique<BufferCacheSim>(&sim_, std::move(raw));
  }

  Simulation sim_;
  std::vector<std::unique_ptr<DiskSim>> disks_;
  std::unique_ptr<BufferCacheSim> cache_;
};

TEST_F(BufferCacheTest, SmallWriteCompletesAtMemorySpeed) {
  MakeCache();
  double done_at = -1.0;
  cache_->Write(0, kChunk, [&] { done_at = sim_.now().seconds(); });
  sim_.RunUntil(monoutil::Seconds(1.0));
  // One chunk copies at memory speed (1/192 s); the disk would need 1 s.
  EXPECT_NEAR(done_at, CopySeconds(kChunk), 1e-9);
  EXPECT_EQ(disks_[0]->bytes_written(), Bytes(0));  // Nothing flushed yet.
}

TEST_F(BufferCacheTest, WritebackFlushesAfterDelay) {
  MakeCache();
  cache_->Write(0, Chunks(2), [] {});
  sim_.RunUntil(kDelay - monoutil::Seconds(0.1));
  EXPECT_EQ(cache_->total_flushed(), Bytes(0));
  sim_.Run();
  EXPECT_EQ(cache_->total_flushed(), Chunks(2));
  EXPECT_EQ(cache_->total_dirty(), Bytes(0));
  EXPECT_EQ(disks_[0]->bytes_written(), Chunks(2));
  // Two 1 s flushes once the delay has passed.
  EXPECT_NEAR(sim_.now().seconds(), kDelay.seconds() + 2.0, 1e-9);
}

TEST_F(BufferCacheTest, PressureStartsFlushingImmediately) {
  MakeCache();
  cache_->Write(0, kDirtyLimit, [] {});  // Exactly at the limit: flushing must start.
  sim_.RunUntil(monoutil::Seconds(2.0));  // Long before the writeback delay.
  EXPECT_GT(cache_->total_flushed(), Bytes(0));
}

TEST_F(BufferCacheTest, OverLimitWritesBlockUntilFlushed) {
  MakeCache();
  double first_done = -1.0;
  double second_done = -1.0;
  cache_->Write(0, kDirtyLimit, [&] { first_done = sim_.now().seconds(); });
  cache_->Write(0, kChunk, [&] { second_done = sim_.now().seconds(); });
  sim_.Run();
  EXPECT_NEAR(first_done, CopySeconds(kDirtyLimit), 1e-9);
  // The second write had to wait for the first chunk's flush (1 s), then copied.
  EXPECT_NEAR(second_done, 1.0 + CopySeconds(kChunk), 1e-9);
  EXPECT_EQ(cache_->total_flushed(), kDirtyLimit + kChunk);
}

TEST_F(BufferCacheTest, FlushContendsWithForegroundReads) {
  MakeCache();
  // Fill the cache to the limit so flushing starts, then issue a read.
  cache_->Write(0, kDirtyLimit, [] {});
  double read_done = -1.0;
  disks_[0]->Read(kChunk, [&](/*no args*/) { read_done = sim_.now().seconds(); });
  sim_.Run();
  // Alone, the read would take 1 s; sharing the disk with flush writes it must take
  // measurably longer.
  EXPECT_GT(read_done, 1.5);
}

TEST_F(BufferCacheTest, FlusherDrainsMultipleDisks) {
  MakeCache(/*num_disks=*/2);
  // Together the two writes reach the limit: pressure flushes both disks.
  cache_->Write(0, kDirtyLimit / 2, [] {});
  cache_->Write(1, kDirtyLimit / 2, [] {});
  sim_.Run();
  EXPECT_EQ(disks_[0]->bytes_written(), kDirtyLimit / 2);
  EXPECT_EQ(disks_[1]->bytes_written(), kDirtyLimit / 2);
  EXPECT_EQ(cache_->total_dirty(), Bytes(0));
}

TEST_F(BufferCacheTest, WritebackReArmsAfterDrain) {
  MakeCache();
  cache_->Write(0, kChunk, [] {});
  sim_.Run();
  EXPECT_EQ(cache_->total_flushed(), kChunk);
  // A later write must get its own delayed writeback, not be stranded.
  cache_->Write(0, kChunk / 2, [] {});
  sim_.Run();
  EXPECT_EQ(cache_->total_flushed(), kChunk + kChunk / 2);
}

TEST_F(BufferCacheTest, BlockedWritesAdmitInFifoOrder) {
  MakeCache();
  cache_->Write(0, kDirtyLimit, [] {});  // Fills the cache; the rest throttle.
  std::vector<int> completion_order;
  std::vector<double> completion_times;
  for (int i = 0; i < 3; ++i) {
    cache_->Write(0, kChunk, [&, i] {
      completion_order.push_back(i);
      completion_times.push_back(sim_.now().seconds());
    });
  }
  sim_.Run();
  // Throttled writers are admitted strictly in arrival order as flushing frees
  // headroom, never reordered by size or disk state.
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], 0);
  EXPECT_EQ(completion_order[1], 1);
  EXPECT_EQ(completion_order[2], 2);
  EXPECT_LE(completion_times[0], completion_times[1]);
  EXPECT_LE(completion_times[1], completion_times[2]);
  EXPECT_EQ(cache_->total_flushed(), kDirtyLimit + Chunks(3));
}

TEST_F(BufferCacheTest, SyncWaitersReleaseAcrossInterleavedWrites) {
  MakeCache();
  // Interleave async and sync writes to the same disk. The sync writes force
  // flushing themselves, long before the writeback delay. Flushing is FIFO, so the
  // first sync write is durable once 3 chunks (async 2 + its own 1) have been
  // flushed, the second once all 5 have.
  double first_sync_done = -1.0;
  double second_sync_done = -1.0;
  cache_->Write(0, Chunks(2), [] {});
  cache_->WriteSync(0, kChunk, [&] { first_sync_done = sim_.now().seconds(); });
  cache_->Write(0, kChunk, [] {});
  cache_->WriteSync(0, kChunk, [&] { second_sync_done = sim_.now().seconds(); });
  sim_.Run();
  // One chunk per second: 3 chunks flushed at t=3, 5 at t=5 (memory copies do not
  // delay flushing).
  EXPECT_NEAR(first_sync_done, 3.0, 1e-6);
  EXPECT_NEAR(second_sync_done, 5.0, 1e-6);
  EXPECT_EQ(cache_->total_flushed(), Chunks(5));
}

TEST_F(BufferCacheTest, BytesAreConservedAfterDrain) {
  MakeCache(/*num_disks=*/2);
  // A mix of cached, throttled, and sync writes across both disks. Each cached
  // write is over half the limit and ends in a partial chunk.
  const Bytes write = kDirtyLimit / 2 + kChunk / 2;
  monoutil::Bytes submitted;
  for (int i = 0; i < 4; ++i) {
    cache_->Write(i % 2, write, [] {});
    submitted += write;
  }
  cache_->WriteSync(0, kChunk / 4, [] {});
  submitted += kChunk / 4;
  sim_.Run();
  // Every submitted byte must end up flushed: none lost, none duplicated.
  EXPECT_EQ(cache_->total_flushed(), submitted);
  EXPECT_EQ(cache_->total_dirty(), Bytes(0));
  EXPECT_EQ(disks_[0]->bytes_written() + disks_[1]->bytes_written(), submitted);
  EXPECT_FALSE(cache_->flushing());
}

TEST_F(BufferCacheTest, ZeroByteWriteCompletes) {
  MakeCache();
  bool done = false;
  cache_->Write(0, Bytes(0), [&] { done = true; });
  sim_.Run();
  EXPECT_TRUE(done);
}

// The cache a default machine builds, on its stock 90 MiB/s HDDs: a writer that
// would cross the dirty limit waits for exactly one flush chunk to land.
TEST(BufferCacheProductionTest, DefaultMachineBlocksOverTheLimitUntilAChunkLands) {
  Simulation sim;
  MachineSim machine(&sim, 0, MachineConfig());
  BufferCacheSim& cache = machine.buffer_cache();
  double first_done = -1.0;
  double second_done = -1.0;
  cache.Write(0, kDirtyLimit, [&] { first_done = sim.now().seconds(); });
  cache.Write(0, kChunk, [&] { second_done = sim.now().seconds(); });
  EXPECT_TRUE(cache.flushing());  // At the limit: writeback starts at once.

  // A lone flush runs at the disk's full bandwidth.
  const double flush_landed = (kChunk / DiskConfig::Hdd().bandwidth).seconds();
  sim.RunUntil(monoutil::Seconds(flush_landed * 0.99));
  EXPECT_EQ(cache.total_flushed(), Bytes(0));
  EXPECT_LT(second_done, 0.0);  // Still blocked.

  sim.Run();
  EXPECT_NEAR(second_done, flush_landed + CopySeconds(kChunk), 1e-9);
  EXPECT_NEAR(first_done, CopySeconds(kDirtyLimit), 1e-9);
  EXPECT_EQ(cache.total_flushed(), kDirtyLimit + kChunk);
  EXPECT_EQ(machine.disk(0).bytes_written(), kDirtyLimit + kChunk);
  EXPECT_EQ(machine.disk(1).bytes_written(), Bytes(0));
}

}  // namespace
}  // namespace monosim
