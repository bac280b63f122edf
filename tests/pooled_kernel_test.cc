// Regression tests for the pooled event kernel (slab-allocated records,
// inline callbacks, generation-checked handles, one event heap).
//
// Three layers of coverage:
//
//  * Digest oracles. The kernel rewrite must not change any schedule: these
//    scenarios were run against the pre-change kernel (std::function events,
//    shared_ptr handles, single binary heap) and their digests hardcoded.
//    Sort order, tombstone handling, epoch batching and fabric churn all feed
//    the digest, so a drifted constant means the rewrite changed observable
//    behaviour, not just its internals.
//
//  * Steady-state allocation. The whole point of the pooled layout: once the
//    pools and queue vectors reach their high-water mark, schedule/fire/cancel
//    churn performs zero heap allocations. Checked with a global operator new
//    hook that counts only inside the measurement window.
//
//  * Handle generation safety. Handles hold (record, generation) into a
//    recycled pool: stale handles — after the event fired, after compaction
//    freed a tombstone, after the record was reused, and even after the whole
//    Simulation died — must degrade to inert, never touch another event.
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/disk.h"
#include "src/cluster/network.h"
#include "src/common/rng.h"
#include "src/framework/environment.h"
#include "src/monotask/mono_executor.h"
#include "src/multitask/spark_executor.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"
#include "src/workloads/bdb.h"
#include "src/workloads/clusters.h"
#include "src/workloads/ml.h"
#include "src/workloads/sort.h"
#include "tests/alloc_hooks.h"

namespace monosim {
namespace {

using monoutil::MiB;

// ---------------------------------------------------------------------------
// Digest oracles (harvested from the pre-change kernel; see file comment).

TEST(PooledKernelDigest, ScheduleFireSweepMatchesPreChangeKernel) {
  Simulation sim;
  int fired = 0;
  for (int i = 0; i < 50000; ++i) {
    sim.ScheduleAt(monoutil::Seconds(static_cast<double>(i % 997)), [&fired] { ++fired; }, "sweep");
  }
  sim.Run();
  EXPECT_EQ(50000, fired);
  EXPECT_EQ(50000u, sim.fired_events());
  EXPECT_EQ(0x3937eade032d5542ull, sim.digest());
}

TEST(PooledKernelDigest, CancelChurnMatchesPreChangeKernel) {
  Simulation sim;
  EventHandle pending;
  int fired = 0;
  for (int i = 0; i < 20000; ++i) {
    pending.Cancel();
    pending = sim.ScheduleAt(monoutil::Seconds(1e6 + i), [] {}, "doomed");
    if (i % 3 == 0) {
      sim.ScheduleAt(monoutil::Seconds(static_cast<double>(i)), [&fired] { ++fired; }, "live");
    }
  }
  pending.Cancel();
  sim.Run();
  EXPECT_EQ(6667, fired);
  EXPECT_EQ(6667u, sim.fired_events());
  EXPECT_EQ(0x597d7f3fb11f0c88ull, sim.digest());
}

TEST(PooledKernelDigest, FabricBurstChurnMatchesPreChangeKernel) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 8, monoutil::BytesPerSecond(1e8));
  monoutil::Rng rng(21);
  int completed = 0;
  std::function<void(int)> relaunch = [&](int remaining) {
    if (remaining == 0) {
      return;
    }
    const int src = static_cast<int>(rng.NextBelow(8));
    int dst = static_cast<int>(rng.NextBelow(7));
    if (dst >= src) {
      ++dst;
    }
    const auto bytes = monoutil::Bytes(static_cast<int64_t>(1 + rng.NextBelow(1 << 16)));
    fabric.StartFlow(src, dst, bytes, [&, remaining] {
      ++completed;
      relaunch(remaining - 1);
    });
  };
  for (int burst = 0; burst < 6; ++burst) {
    sim.ScheduleAt(monoutil::Seconds(0.01 * burst), [&relaunch] {
      for (int i = 0; i < 8; ++i) {
        relaunch(4);
      }
    });
  }
  sim.Run();
  EXPECT_EQ(192, completed);
  EXPECT_EQ(198u, sim.fired_events());
  EXPECT_EQ(0x91de4ae888161222ull, sim.digest());
}

TEST(PooledKernelDigest, FabricEqualShareReLevelMatchesParent) {
  // Tie-heavy fabric churn: waves of a 16-machine all-to-all shuffle with
  // equal flow sizes. Every flow of a wave holds the same share, the whole
  // cohort is re-levelled together each time another wave lands or drains,
  // and its flows complete at one instant — so the fabric's (time, id)
  // completion order and every superseded completion key are exercised at
  // scale. Completions of the first two waves start follow-up flows whose
  // size depends on the completion count, which makes the tie order
  // observable in the schedule; `order` additionally folds the completion
  // sequence in directly. Harvested from the fabric with sorted share and
  // completion indexes.
  constexpr int kMachines = 16;
  Simulation sim;
  NetworkFabricSim fabric(&sim, kMachines, monoutil::BytesPerSecond(1e8));
  int completed = 0;
  uint64_t order = 14695981039346656037ULL;
  const auto start = [&](int src, int dst, int wave) {
    fabric.StartFlow(src, dst, monoutil::Bytes(1 << 18), [&, src, dst, wave] {
      ++completed;
      order = (order ^ static_cast<uint64_t>((wave * kMachines + src) * kMachines + dst)) *
              1099511628211ULL;
      if (wave < 2) {
        const int next = (dst + 1 + wave) % kMachines;
        if (next != src) {
          fabric.StartFlow(src, next, monoutil::Bytes((1 << 16) + (completed % 5) * 4096),
                           [&completed] { ++completed; });
        }
      }
    });
  };
  for (int wave = 0; wave < 4; ++wave) {
    sim.ScheduleAt(monoutil::Seconds(0.004 * wave), [&start, wave] {
      for (int src = 0; src < kMachines; ++src) {
        for (int dst = 0; dst < kMachines; ++dst) {
          if (src != dst) {
            start(src, dst, wave);
          }
        }
      }
    }, "wave");
  }
  sim.Run();
  EXPECT_EQ(1408, completed);
  EXPECT_EQ(0x5895f9dc5c5a9cb7ull, order);
  EXPECT_EQ(407u, sim.fired_events());
  EXPECT_EQ(0x94ce7195a51c1263ull, sim.digest());
}

TEST(PooledKernelDigest, FabricParallelPairsMatchesParent) {
  // Parallel flows per (src, dst) pair: each wave stacks 4-7 equal-sized flows
  // on every pair it uses, so the solver sees classes of high multiplicity,
  // members of a class share one rate, and a whole class completes at one
  // instant. The first member of each class to complete in the first two
  // waves starts a reverse flow sized by the completion count, which makes the
  // (time, id) order inside a class observable in the schedule; `order` folds
  // the completion sequence in directly. Harvested from the fabric with the
  // per-flow solver and the completion heap.
  constexpr int kMachines = 8;
  Simulation sim;
  NetworkFabricSim fabric(&sim, kMachines, monoutil::BytesPerSecond(1e8));
  int completed = 0;
  uint64_t order = 14695981039346656037ULL;
  const auto start = [&](int src, int dst, int member, int wave) {
    fabric.StartFlow(src, dst, monoutil::Bytes((1 << 17) + wave * 8192),
                     [&, src, dst, member, wave] {
      ++completed;
      order = (order ^ static_cast<uint64_t>(((wave * kMachines + src) * kMachines + dst) * 8 +
                                             member)) *
              1099511628211ULL;
      if (wave < 2 && member == 0) {
        fabric.StartFlow(dst, src, monoutil::Bytes((1 << 15) + (completed % 7) * 2048),
                         [&completed] { ++completed; });
      }
    });
  };
  for (int wave = 0; wave < 4; ++wave) {
    sim.ScheduleAt(monoutil::Seconds(0.003 * wave), [&start, wave] {
      for (int src = 0; src < kMachines; ++src) {
        for (int step = 1; step <= 3; ++step) {
          const int dst = (src + step * (wave + 1)) % kMachines;
          if (dst == src) {
            continue;
          }
          const int members = 4 + (src + step + wave) % 4;
          for (int member = 0; member < members; ++member) {
            start(src, dst, member, wave);
          }
        }
      }
    }, "wave");
  }
  sim.Run();
  EXPECT_EQ(532, completed);
  EXPECT_EQ(0x2ab745d92602fc7dull, order);
  EXPECT_EQ(111u, sim.fired_events());
  EXPECT_EQ(0x78fd37f5f5c93f74ull, sim.digest());
}

TEST(PooledKernelDigest, SortJobMatchesPreChangeKernel) {
  SimEnvironment env(monoload::SmallHddClusterConfig());
  monoload::SortParams params;
  params.total_bytes = MiB(256);
  params.values_per_key = 10;
  params.num_map_tasks = 8;
  params.num_reduce_tasks = 8;
  params.seed = 7;
  JobSpec job = monoload::MakeSortJob(&env.dfs(), params);
  MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
  env.AttachExecutor(&executor);
  env.driver().RunJob(std::move(job));
  EXPECT_EQ(181u, env.sim().fired_events());
  EXPECT_EQ(0x9c0fc9e976a310a5ull, env.sim().digest());
}

// The Fig 7 least-squares job on its 15 x 2 SSD cluster, Spark then MonoSpark,
// each in a fresh environment: in-memory shuffles keep the max-min fabric
// loaded and mostly one connected component, so this pins the spanning-solve
// path that the sort oracles above barely reach.
TEST(PooledKernelDigest, MlJobMatchesParent) {
  monoload::MlParams params;
  params.num_stages = 2;
  struct Witness {
    uint64_t fired;
    uint64_t digest;
  };
  const auto run = [&params](bool monotasks) {
    SimEnvironment env(monoload::MlClusterConfig());
    JobSpec job = monoload::MakeMlJob(params);
    if (monotasks) {
      MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
      env.AttachExecutor(&executor);
      env.driver().RunJob(std::move(job));
    } else {
      SparkExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
      env.AttachExecutor(&executor);
      env.driver().RunJob(std::move(job));
    }
    return Witness{env.sim().fired_events(), env.sim().digest()};
  };
  const Witness spark = run(false);
  EXPECT_EQ(25609u, spark.fired);
  EXPECT_EQ(0x565919a47db6b698ull, spark.digest);
  const Witness mono = run(true);
  EXPECT_EQ(16801u, mono.fired);
  EXPECT_EQ(0x7bc876401868dae7ull, mono.digest);
}

// Two Big Data Benchmark queries on the paper's 5-worker cluster, seed 2, as
// the bdb_sweep benchmark runs them: 2a (scan + aggregation shuffle) and 3c
// (the three-stage join whose shuffle loads disk, CPU and network about
// equally), each under Spark and MonoSpark on HDD and SSD. The Spark runs are
// dominated by the 4 MiB chunk pipeline's FluidServer submits and
// completions, so this pins the disk and CPU-pool request path event for
// event. Harvested from the two-pass water-fill with callbacks stored in the
// request records.
TEST(PooledKernelDigest, BdbJobsMatchParent) {
  struct Witness {
    uint64_t fired;
    uint64_t digest;
  };
  const auto run = [](monoload::BdbQuery query, bool monotasks, bool ssd) {
    monosim::ClusterConfig cluster = monoload::BdbClusterConfig(ssd);
    cluster.seed = 2;
    SimEnvironment env(cluster);
    JobSpec job = monoload::MakeBdbQueryJob(&env.dfs(), query, /*seed=*/2);
    if (monotasks) {
      MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
      env.AttachExecutor(&executor);
      env.driver().RunJob(std::move(job));
    } else {
      SparkExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
      env.AttachExecutor(&executor);
      env.driver().RunJob(std::move(job));
    }
    return Witness{env.sim().fired_events(), env.sim().digest()};
  };
  struct Case {
    monoload::BdbQuery query;
    bool monotasks;
    bool ssd;
    Witness expected;
  };
  const Case cases[] = {
      {monoload::BdbQuery::k2a, false, false, {34626u, 0x019f87861af51234ull}},
      {monoload::BdbQuery::k2a, true, false, {3761u, 0xf107ea9ca4956d26ull}},
      {monoload::BdbQuery::k2a, false, true, {34578u, 0x5810d26e31e0dfccull}},
      {monoload::BdbQuery::k2a, true, true, {3692u, 0xfa67cca3a6f06ef2ull}},
      {monoload::BdbQuery::k3c, false, false, {56749u, 0x185498a57773c8a7ull}},
      {monoload::BdbQuery::k3c, true, false, {5081u, 0x9e0410cef22990f5ull}},
      {monoload::BdbQuery::k3c, false, true, {56546u, 0x0d0a96d418ff4ddcull}},
      {monoload::BdbQuery::k3c, true, true, {5012u, 0xd6d0d0c489f41da9ull}},
  };
  for (const Case& c : cases) {
    const Witness got = run(c.query, c.monotasks, c.ssd);
    SCOPED_TRACE(::testing::Message()
                 << (c.monotasks ? "mono" : "spark") << ":bdb."
                 << monoload::BdbQueryName(c.query) << "/" << (c.ssd ? "ssd" : "hdd"));
    EXPECT_EQ(c.expected.fired, got.fired);
    EXPECT_EQ(c.expected.digest, got.digest) << std::hex << "0x" << got.digest;
  }
}

// ---------------------------------------------------------------------------
// Steady-state allocation.

// A self-rescheduling event chain; [this] captures stay inline.
struct Chain {
  Simulation* sim;
  double period;
  int remaining;
  int* fired;

  void Arm() {
    if (remaining-- <= 0) {
      return;
    }
    sim->ScheduleAfter(monoutil::Seconds(period), [this] {
      ++*fired;
      Arm();
    }, "chain");
  }
};

// The fabric pattern: every tick cancels a far-future event and schedules a
// replacement, leaving a tombstone behind (exercising compaction), plus an
// oversize callback that cycles a CallbackArena block every tick.
struct Churner {
  Simulation* sim;
  EventHandle doomed;
  int remaining;
  int* fired;

  void Arm() {
    if (remaining-- <= 0) {
      return;
    }
    doomed.Cancel();
    doomed = sim->ScheduleAt(monoutil::Seconds(1e9 + remaining), [] {}, "doomed");
    char pad[64] = {1};  // Forces the outline (arena) callback path.
    sim->ScheduleAfter(monoutil::Seconds(0.25), [this, pad] {
      ++*fired;
      (void)pad;
      sim->AtEpochEnd([this] { ++*fired; });
      Arm();
    }, "churn");
  }
};

#if MONO_TEST_ALLOC_HOOKS
TEST(PooledKernelAlloc, SteadyStateScheduleFireCancelIsHeapFree) {
  Simulation sim;
  int fired = 0;
  std::vector<Chain> chains(8);
  for (size_t i = 0; i < chains.size(); ++i) {
    chains[i] = Chain{&sim, 0.1 + 0.01 * static_cast<double>(i), 1 << 20, &fired};
    chains[i].Arm();
  }
  Churner churner{&sim, {}, 1 << 20, &fired};
  churner.Arm();

  // Warmup: drive every pool, arena class and queue vector past the high-water
  // mark this workload will ever need. More warmup steps than measured steps,
  // so the measured window sees only recycled capacity.
  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE(sim.Step());
  }

  const long before = monotest::AllocationCount().load();
  bool stepped = true;
  for (int i = 0; i < 4000 && stepped; ++i) {
    stepped = sim.Step();  // No EXPECT inside the window: count only the kernel.
  }
  const long during = monotest::AllocationCount().load() - before;

  EXPECT_TRUE(stepped);
  EXPECT_EQ(0, during)
      << "the steady-state schedule/fire/cancel path touched the heap";
  EXPECT_GT(fired, 0);
  EXPECT_GT(sim.event_pool_capacity(), 0u);
}

TEST(PooledKernelAlloc, FluidServerSubmitCompleteChurnIsHeapFree) {
  // Three device kinds under submit/complete churn: an uncapped server, a
  // capped 4-core CPU pool whose mixed share weights make the water-fill pin
  // some requests and re-share the surplus, and DiskSim reads (whose wrapper
  // callback must stay inline) next to writes on an HDD.
  Simulation sim;
  FluidServer server(&sim, "dev", ConstantCapacity(1e6));
  FluidServer cpu(&sim, "cpu", ConstantCapacity(4.0), /*per_request_cap=*/1.0);
  DiskSim disk(&sim, "disk", DiskConfig::Hdd());
  int completions = 0;
  struct Pump {
    FluidServer* server;
    double amount;
    double share_weight;
    int remaining;
    int* completions;

    void Arm() {
      if (remaining-- <= 0) {
        return;
      }
      server->Submit(amount, [this] {
        ++*completions;
        Arm();
      }, /*weight=*/1.0, share_weight);
    }
  };
  struct DiskPump {
    DiskSim* disk;
    bool write;
    int remaining;
    int* completions;

    void Arm() {
      if (remaining-- <= 0) {
        return;
      }
      const auto bytes = monoutil::Bytes(write ? 3 << 20 : 4 << 20);
      const auto done = [this] {
        ++*completions;
        Arm();
      };
      if (write) {
        disk->Write(bytes, done);
      } else {
        disk->Read(bytes, done);
      }
    }
  };
  std::vector<Pump> pumps;
  for (int i = 0; i < 4; ++i) {
    pumps.push_back(Pump{&server, 1000.0, 1.0, 1 << 20, &completions});
  }
  const double cpu_shares[] = {0.5, 1.0, 1.0, 2.0, 4.0, 8.0};
  for (int i = 0; i < 6; ++i) {
    pumps.push_back(Pump{&cpu, 0.25 + 0.1 * i, cpu_shares[i], 1 << 20, &completions});
  }
  std::vector<DiskPump> disk_pumps;
  for (int i = 0; i < 3; ++i) {
    disk_pumps.push_back(DiskPump{&disk, i == 2, 1 << 20, &completions});
  }
  for (auto& pump : pumps) {
    pump.Arm();
  }
  for (auto& pump : disk_pumps) {
    pump.Arm();
  }

  for (int i = 0; i < 8000; ++i) {
    ASSERT_TRUE(sim.Step());
  }

  const monoutil::Bytes read_before = disk.bytes_read();
  const monoutil::Bytes written_before = disk.bytes_written();
  const double cpu_before = cpu.total_served();
  const long before = monotest::AllocationCount().load();
  bool stepped = true;
  for (int i = 0; i < 6000 && stepped; ++i) {
    stepped = sim.Step();
  }
  const long during = monotest::AllocationCount().load() - before;

  EXPECT_TRUE(stepped);
  EXPECT_EQ(0, during)
      << "the steady-state submit/complete path touched the heap";
  // The window churned every device, not just the fast uncapped one.
  EXPECT_GT(disk.bytes_read(), read_before);
  EXPECT_GT(disk.bytes_written(), written_before);
  EXPECT_GT(cpu.total_served(), cpu_before);
}

TEST(PooledKernelAlloc, FabricChurnIsHeapFree) {
  // Machines 0-7 carry a saturated ring of short-flow lanes, uneven enough
  // (even machines send a third flow) that a departure frees capacity others
  // can take, plus one megabyte lane per machine whose far-future completion
  // keys go stale on every re-level. Departures and arrivals therefore go
  // through batched re-solves, cascade re-keys and earliest-completion
  // rescans; the isolated 8->9 lane is absorbed by the local patches every
  // time it turns over. The lane pattern is fixed, so every per-side list and
  // solver scratch vector reaches its high-water capacity during warmup (the
  // live-pair list is reserved for every pair up front).
  Simulation sim;
  NetworkFabricSim fabric(&sim, 10, monoutil::BytesPerSecond(1e8));
  int completed = 0;
  // One lane: a fixed src->dst pair whose flow, on completion, starts its
  // successor with the next size of a fixed cycle after a short pause (an
  // immediate restart would re-solve to the very same rates).
  struct FlowLane {
    Simulation* sim;
    NetworkFabricSim* fabric;
    int src;
    int dst;
    int64_t base;
    int64_t step;
    int* completed;

    void Arm() {
      const auto bytes = monoutil::Bytes(base + (step++ * (7919 + 64 * src)) % 65536);
      fabric->StartFlow(src, dst, bytes, [this] {
        ++*completed;
        sim->ScheduleAfter(monoutil::Seconds(1e-5 * static_cast<double>(step % 3)),
                           [this] { Arm(); }, "rearm");
      });
    }
  };
  std::vector<FlowLane> lanes;
  for (int m = 0; m < 8; ++m) {
    lanes.push_back(FlowLane{&sim, &fabric, m, (m + 1) % 8, 4096, 0, &completed});
    lanes.push_back(FlowLane{&sim, &fabric, m, (m + 3) % 8, 1 << 20, 3, &completed});
    if (m % 2 == 0) {
      lanes.push_back(FlowLane{&sim, &fabric, m, (m + 2) % 8, 4096, 1, &completed});
    }
  }
  lanes.push_back(FlowLane{&sim, &fabric, 8, 9, 4096, 0, &completed});
  for (FlowLane& lane : lanes) {
    lane.Arm();
  }

  for (int i = 0; i < 6000; ++i) {
    ASSERT_TRUE(sim.Step());
  }

  const NetworkFabricSim::SolverStats before_stats = fabric.solver_stats();
  const long before = monotest::AllocationCount().load();
  bool stepped = true;
  for (int i = 0; i < 4000 && stepped; ++i) {
    stepped = sim.Step();
  }
  const long during = monotest::AllocationCount().load() - before;
  const NetworkFabricSim::SolverStats& after_stats = fabric.solver_stats();

  EXPECT_TRUE(stepped);
  EXPECT_EQ(0, during) << "steady-state fabric churn touched the heap";
  // The window exercised every churn path: batched re-solves, patched
  // arrivals and patched departures.
  EXPECT_GT(after_stats.solves, before_stats.solves);
  EXPECT_GT(after_stats.patched_arrivals, before_stats.patched_arrivals);
  EXPECT_GT(after_stats.patched_departures, before_stats.patched_departures);
}
#endif  // MONO_TEST_ALLOC_HOOKS

// ---------------------------------------------------------------------------
// Handle generation safety.

TEST(PooledKernelHandles, HandleOutlivesSimulation) {
  EventHandle handle;
  {
    Simulation sim;
    handle = sim.ScheduleAt(monoutil::Seconds(5.0), [] {}, "orphan");
    EXPECT_TRUE(handle.pending());
  }
  // The records (and their slabs) are gone; the handle must be inert, not a
  // dangling pointer into freed pool memory.
  EXPECT_FALSE(handle.pending());
  handle.Cancel();  // Must be a no-op.
  EXPECT_FALSE(handle.pending());
}

TEST(PooledKernelHandles, CancelAfterCompactionRecycledTheRecord) {
  Simulation sim;
  // Enough tombstones to trip compaction (tombstones outnumber live entries
  // and the queue exceeds the compaction floor).
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 200; ++i) {
    doomed.push_back(sim.ScheduleAt(monoutil::Seconds(1000.0 + i), [] {}, "doomed"));
  }
  for (EventHandle& handle : doomed) {
    handle.Cancel();
  }
  // This schedule triggers compaction, freeing every cancelled record back to
  // the pool; the next schedules below reuse exactly those records.
  int fired = 0;
  sim.ScheduleAt(monoutil::Seconds(1.0), [&fired] { ++fired; }, "live");
  ASSERT_EQ(0u, sim.queued_tombstones());
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 200; ++i) {
    fresh.push_back(sim.ScheduleAt(monoutil::Seconds(2000.0 + i), [&fired] { ++fired; }, "fresh"));
  }
  // Stale handles point at recycled records now hosting fresh events: their
  // generation no longer matches, so cancelling must not kill the new
  // occupants.
  for (EventHandle& handle : doomed) {
    EXPECT_FALSE(handle.pending());
    handle.Cancel();
  }
  for (EventHandle& handle : fresh) {
    EXPECT_TRUE(handle.pending());
  }
  sim.Run();
  EXPECT_EQ(201, fired);
}

TEST(PooledKernelHandles, CancelAfterFireIsInert) {
  Simulation sim;
  int fired = 0;
  EventHandle first = sim.ScheduleAt(monoutil::Seconds(1.0), [&fired] { ++fired; }, "first");
  ASSERT_TRUE(sim.Step());
  EXPECT_FALSE(first.pending());
  // The fired record is the pool's next free record; this schedule reuses it.
  EventHandle second = sim.ScheduleAt(monoutil::Seconds(2.0), [&fired] { ++fired; }, "second");
  first.Cancel();  // Stale generation: must not cancel `second`.
  EXPECT_TRUE(second.pending());
  sim.Run();
  EXPECT_EQ(2, fired);
}

TEST(PooledKernelHandles, CopiedHandlesShareCancellation) {
  Simulation sim;
  int fired = 0;
  EventHandle a = sim.ScheduleAt(monoutil::Seconds(1.0), [&fired] { ++fired; }, "shared");
  EventHandle b = a;
  b.Cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
  sim.Run();
  EXPECT_EQ(0, fired);
}

}  // namespace
}  // namespace monosim
