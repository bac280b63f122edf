// Tests for the threaded execution engine: devices, schedulers, DAG scheduler.
#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/engine/block_device.h"
#include "src/engine/dag_scheduler.h"
#include "src/engine/fabric.h"
#include "src/engine/resource_schedulers.h"
#include "src/engine/worker.h"

namespace monotasks {
namespace {

using namespace std::chrono_literals;

Buffer MakeBuffer(size_t size, uint8_t fill = 7) { return Buffer(size, fill); }

TEST(BlockDeviceTest, WriteThenReadRoundTrips) {
  SimulatedBlockDevice device("d0", monoutil::MiBps(1000), /*time_scale=*/1000.0);
  Buffer data = MakeBuffer(4096, 42);
  device.Write("block", data);
  EXPECT_TRUE(device.HasBlock("block"));
  EXPECT_EQ(device.BlockSize("block"), 4096u);
  EXPECT_EQ(device.Read("block"), data);
  EXPECT_EQ(device.bytes_written(), monoutil::Bytes(4096));
  EXPECT_EQ(device.bytes_read(), monoutil::Bytes(4096));
}

TEST(BlockDeviceTest, ReadRangeReturnsSlice) {
  SimulatedBlockDevice device("d0", monoutil::MiBps(1000), 1000.0);
  Buffer data;
  for (int i = 0; i < 100; ++i) {
    data.push_back(static_cast<uint8_t>(i));
  }
  device.Write("block", data);
  const Buffer slice = device.ReadRange("block", 10, 5);
  ASSERT_EQ(slice.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(slice[static_cast<size_t>(i)], 10 + i);
  }
}

TEST(BlockDeviceTest, DeleteRemovesBlock) {
  SimulatedBlockDevice device("d0", monoutil::MiBps(1000), 1000.0);
  device.Write("block", MakeBuffer(16));
  device.DeleteBlock("block");
  EXPECT_FALSE(device.HasBlock("block"));
}

TEST(BlockDeviceTest, TransfersTakeTimeAtConfiguredRate) {
  // 1 MiB at 10 MiB/s with 10x time scale -> ~10 ms of wall time.
  SimulatedBlockDevice device("d0", monoutil::MiBps(10), /*time_scale=*/10.0);
  const auto start = std::chrono::steady_clock::now();
  device.Write("block", MakeBuffer(1 << 20));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GT(elapsed, 0.005);
  EXPECT_LT(elapsed, 0.2);
}

TEST(BlockDeviceTest, AccountingIsTimeScaleInvariant) {
  // Regression for the time-scale unit mix-up: EngineConfig defaults to
  // time_scale 50 while the components once defaulted to a silent 1.0, so a
  // device built without forwarding the config's scale ran 50x slower than its
  // siblings. The constructors now require the scale; this pins the other half
  // of the contract — byte accounting (the model bridge's input) never depends
  // on it, so a scale mismatch can only ever distort timing, not totals.
  SimulatedBlockDevice fast("fast", monoutil::MiBps(100), /*time_scale=*/4000.0);
  SimulatedBlockDevice slow("slow", monoutil::MiBps(100), /*time_scale=*/1000.0);
  const Buffer data = MakeBuffer(1 << 16);
  fast.Write("b", data);
  slow.Write("b", data);
  fast.Read("b");
  slow.Read("b");
  EXPECT_EQ(fast.bytes_written(), slow.bytes_written());
  EXPECT_EQ(fast.bytes_read(), slow.bytes_read());
  EXPECT_EQ(fast.charged_bytes(), slow.charged_bytes());
}

TEST(FabricTest, AccountingIsTimeScaleInvariant) {
  InProcessFabric fast(2, monoutil::MiBps(100), /*time_scale=*/4000.0);
  InProcessFabric slow(2, monoutil::MiBps(100), /*time_scale=*/1000.0);
  fast.Transfer(0, 1, monoutil::MiB(1));
  slow.Transfer(0, 1, monoutil::MiB(1));
  EXPECT_EQ(fast.total_bytes(), slow.total_bytes());
  EXPECT_EQ(fast.total_bytes(), monoutil::MiB(1));
}

TEST(FabricTest, LocalTransfersAreFree) {
  InProcessFabric fabric(2, monoutil::MiBps(1), /*time_scale=*/1.0);
  const auto start = std::chrono::steady_clock::now();
  fabric.Transfer(0, 0, monoutil::Bytes(10 << 20));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(elapsed, 0.05);
  EXPECT_EQ(fabric.total_bytes(), monoutil::Bytes(0));
}

TEST(FabricTest, RemoteTransfersAreRateLimitedAndCounted) {
  InProcessFabric fabric(2, monoutil::MiBps(10), /*time_scale=*/10.0);
  const auto start = std::chrono::steady_clock::now();
  fabric.Transfer(0, 1, monoutil::Bytes(1 << 20));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GT(elapsed, 0.005);
  EXPECT_EQ(fabric.total_bytes(), monoutil::Bytes(1 << 20));
}

TEST(CpuSchedulerTest, RunsAllTasksAndReportsServiceTime) {
  std::atomic<int> completed{0};
  ResourceScheduler scheduler(ResourceType::kCpu, 2, [&](Monotask*, double service) {
    EXPECT_GE(service, 0.0);
    ++completed;
  });
  std::vector<std::unique_ptr<Monotask>> tasks;
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(std::make_unique<FunctionMonotask>(ResourceType::kCpu, "t",
                                                       [&ran] { ++ran; }));
    scheduler.Submit(tasks.back().get());
  }
  while (completed.load() < 8) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(CpuSchedulerTest, ConcurrencyNeverExceedsThreadCount) {
  std::atomic<int> completed{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  ResourceScheduler scheduler(ResourceType::kCpu, 3, [&](Monotask*, double) { ++completed; });
  std::vector<std::unique_ptr<Monotask>> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back(std::make_unique<FunctionMonotask>(
        ResourceType::kCpu, "t", [&] {
          const int now = ++concurrent;
          int expected = max_concurrent.load();
          while (now > expected && !max_concurrent.compare_exchange_weak(expected, now)) {
          }
          std::this_thread::sleep_for(2ms);
          --concurrent;
        }));
    scheduler.Submit(tasks.back().get());
  }
  while (completed.load() < 12) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_LE(max_concurrent.load(), 3);
  EXPECT_GE(max_concurrent.load(), 2);  // Parallelism actually happened.
}

TEST(DiskSchedulerTest, RoundRobinAlternatesPhases) {
  // One-at-a-time disk: w0 holds the disk, blocked on a latch, until two more
  // writes and two reads are queued; the round-robin must then interleave them
  // rather than draining all writes first.
  std::vector<std::string> order;
  std::mutex order_mutex;
  std::atomic<int> completed{0};
  std::latch w0_started(1);
  std::latch rest_queued(1);
  ResourceScheduler scheduler(ResourceType::kDisk, 1,
                              [&](Monotask*, double) { ++completed; });

  std::vector<std::unique_ptr<Monotask>> tasks;
  auto add = [&](monoutil::DiskPhase phase, const std::string& label) {
    auto task = std::make_unique<FunctionMonotask>(
        ResourceType::kDisk, label, [&, label] {
          if (label == "w0") {
            w0_started.count_down();
            rest_queued.wait();
          }
          const std::lock_guard<std::mutex> lock(order_mutex);
          order.push_back(label);
        });
    task->disk_phase = phase;
    tasks.push_back(std::move(task));
  };
  add(monoutil::DiskPhase::kWrite, "w0");
  add(monoutil::DiskPhase::kWrite, "w1");
  add(monoutil::DiskPhase::kWrite, "w2");
  add(monoutil::DiskPhase::kRead, "r0");
  add(monoutil::DiskPhase::kRead, "r1");
  scheduler.Submit(tasks[0].get());
  w0_started.wait();
  for (size_t i = 1; i < tasks.size(); ++i) {
    scheduler.Submit(tasks[i].get());
  }
  rest_queued.count_down();
  while (completed.load() < 5) {
    std::this_thread::sleep_for(1ms);
  }
  const std::lock_guard<std::mutex> lock(order_mutex);
  EXPECT_EQ(order, (std::vector<std::string>{"w0", "r0", "w1", "r1", "w2"}));
}

TEST(NetworkSchedulerTest, AdmissionLimitHolds) {
  // Receiver-side admission (§3.3): the thread count is the multitask limit, so
  // at most that many fetch sets are ever outstanding.
  std::atomic<int> completed{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  ResourceScheduler scheduler(ResourceType::kNetwork, /*threads=*/2,
                              [&](Monotask*, double) { ++completed; });
  std::vector<std::unique_ptr<Monotask>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(std::make_unique<FunctionMonotask>(
        ResourceType::kNetwork, "f", [&] {
          const int now = ++concurrent;
          int expected = max_concurrent.load();
          while (now > expected && !max_concurrent.compare_exchange_weak(expected, now)) {
          }
          std::this_thread::sleep_for(2ms);
          --concurrent;
        }));
    scheduler.Submit(tasks.back().get());
  }
  while (completed.load() < 8) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_LE(max_concurrent.load(), 2);
}

TEST(DagSchedulerTest, RespectsDependencies) {
  std::vector<std::unique_ptr<Monotask>> owned;
  std::vector<Monotask*> submitted;
  std::mutex mutex;
  // A manual "scheduler": collect ready tasks, run them by hand.
  LocalDagScheduler dag([&](Monotask* task) {
    const std::lock_guard<std::mutex> lock(mutex);
    submitted.push_back(task);
  });

  std::vector<int> run_order;
  auto make = [&](int index) {
    owned.push_back(std::make_unique<FunctionMonotask>(
        ResourceType::kCpu, std::to_string(index),
        [&run_order, index] { run_order.push_back(index); }));
    return owned.back().get();
  };
  Monotask* a = make(0);
  Monotask* b = make(1);
  Monotask* c = make(2);

  bool all_done = false;
  std::vector<std::unique_ptr<Monotask>> tasks = std::move(owned);
  // a -> b, a -> c: only a is ready initially.
  dag.SubmitDag(std::move(tasks), {{a, b}, {a, c}}, [&] { all_done = true; });
  ASSERT_EQ(submitted.size(), 1u);
  EXPECT_EQ(submitted[0], a);

  submitted[0]->Run();
  dag.OnMonotaskComplete(a);
  ASSERT_EQ(submitted.size(), 3u);  // b and c became ready.
  submitted[1]->Run();
  dag.OnMonotaskComplete(submitted[1]);
  EXPECT_FALSE(all_done);
  submitted[2]->Run();
  dag.OnMonotaskComplete(submitted[2]);
  EXPECT_TRUE(all_done);
  EXPECT_EQ(dag.pending(), 0);
}

TEST(WorkerTest, MultitaskLimitFollowsFormula) {
  EngineConfig config;
  config.num_workers = 1;
  config.cores_per_worker = 4;
  config.disks_per_worker = 2;
  InProcessFabric fabric(1, config.nic_bandwidth, config.time_scale);
  Worker worker(0, config, &fabric);
  // 4 cores + 2 disks + 4 network + 1 = 11.
  EXPECT_EQ(worker.MultitaskLimit(), 11);
}

TEST(WorkerTest, EndToEndDagRunsOnWorker) {
  EngineConfig config;
  config.num_workers = 1;
  config.cores_per_worker = 2;
  config.disks_per_worker = 1;
  config.time_scale = 1000.0;
  InProcessFabric fabric(1, config.nic_bandwidth, config.time_scale);
  Worker worker(0, config, &fabric);

  auto data = std::make_shared<Buffer>();
  std::vector<std::unique_ptr<Monotask>> tasks;
  auto write = std::make_unique<FunctionMonotask>(
      ResourceType::kDisk, "write",
      [&worker] { worker.disk(0).Write("x", Buffer(1024, 5)); });
  write->disk_phase = monoutil::DiskPhase::kWrite;
  auto read = std::make_unique<FunctionMonotask>(
      ResourceType::kDisk, "read", [&worker, data] { *data = worker.disk(0).Read("x"); });
  read->disk_phase = monoutil::DiskPhase::kRead;
  auto compute = std::make_unique<FunctionMonotask>(
      ResourceType::kCpu, "sum", [data] {
        long sum = 0;
        for (uint8_t byte : *data) {
          sum += byte;
        }
        MONO_CHECK(sum == 5 * 1024);
      });
  Monotask* write_ptr = write.get();
  Monotask* read_ptr = read.get();
  Monotask* compute_ptr = compute.get();
  tasks.push_back(std::move(write));
  tasks.push_back(std::move(read));
  tasks.push_back(std::move(compute));

  std::promise<void> done;
  worker.dag_scheduler().SubmitDag(std::move(tasks),
                                   {{write_ptr, read_ptr}, {read_ptr, compute_ptr}},
                                   [&done] { done.set_value(); });
  ASSERT_EQ(done.get_future().wait_for(5s), std::future_status::ready);
  EXPECT_EQ(worker.counters().cpu_count.load(), 1);
  EXPECT_EQ(worker.counters().disk_count.load(), 2);
  EXPECT_GT(worker.counters().disk_seconds.load(), 0.0);
}

}  // namespace
}  // namespace monotasks
