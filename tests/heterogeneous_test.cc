// Tests for heterogeneous clusters (per-machine overrides), per-machine monotask
// attribution, and multi-replica DFS locality.
#include <gtest/gtest.h>

#include "src/framework/environment.h"
#include "src/monotask/mono_executor.h"
#include "src/multitask/spark_executor.h"
#include "src/workloads/read_compute.h"
#include "src/workloads/sort.h"

namespace monosim {
namespace {

using monoutil::GiB;
using monoutil::MiB;
using monoutil::MiBps;

TEST(HeterogeneousClusterTest, OverridesApplyToTheRightMachine) {
  ClusterConfig config = ClusterConfig::Of(4, MachineConfig::HddWorker(2));
  MachineConfig big = config.machine;
  big.cores = 32;
  config.overrides.emplace_back(2, big);
  SimEnvironment env(config);
  EXPECT_EQ(env.cluster().machine(0).num_cores(), 8);
  EXPECT_EQ(env.cluster().machine(2).num_cores(), 32);
}

TEST(HeterogeneousClusterTest, MachineAtFallsBackToDefault) {
  ClusterConfig config = ClusterConfig::Of(4, MachineConfig::HddWorker(1));
  EXPECT_EQ(config.MachineAt(3).disks.size(), 1u);
  MachineConfig other = MachineConfig::HddWorker(3);
  config.overrides.emplace_back(1, other);
  EXPECT_EQ(config.MachineAt(1).disks.size(), 3u);
  EXPECT_EQ(config.MachineAt(0).disks.size(), 1u);
}

TEST(HeterogeneousClusterTest, DegradedDiskShowsInPerMachineMonotaskRates) {
  ClusterConfig config = ClusterConfig::Of(4, MachineConfig::HddWorker(2));
  MachineConfig sick = config.machine;
  for (auto& disk : sick.disks) {
    disk.bandwidth = MiBps(30);
  }
  config.overrides.emplace_back(1, sick);

  SimEnvironment env(config);
  MonotasksExecutorSim mono(&env.sim(), &env.cluster(), &env.pool(), {});
  env.AttachExecutor(&mono);
  monoload::SortParams params;
  params.total_bytes = GiB(8);
  params.values_per_key = 100;
  params.num_map_tasks = 64;
  params.num_reduce_tasks = 64;
  const JobResult result = env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), params));

  const auto& times = result.stages[0].monotask_times;
  ASSERT_EQ(times.disk_seconds_per_machine.size(), 4u);
  auto rate = [&](int machine) {
    return static_cast<double>(
               times.disk_bytes_per_machine[static_cast<size_t>(machine)].count()) /
           times.disk_seconds_per_machine[static_cast<size_t>(machine)];
  };
  // The degraded machine's disk monotasks run at exactly its device rate (one at a
  // time => no contention blurs the measurement), a third of its peers'.
  EXPECT_NEAR(rate(1), MiBps(30).bps(), MiBps(30).bps() * 0.01);
  EXPECT_NEAR(rate(0), MiBps(90).bps(), MiBps(90).bps() * 0.01);
  EXPECT_NEAR(rate(1) / rate(0), 1.0 / 3.0, 0.01);
}

TEST(HeterogeneousClusterTest, DegradedClusterIsSlowerForBothExecutors) {
  auto run = [](bool degrade, bool monotasks) {
    ClusterConfig config = ClusterConfig::Of(4, MachineConfig::HddWorker(2));
    if (degrade) {
      MachineConfig sick = config.machine;
      for (auto& disk : sick.disks) {
        disk.bandwidth = MiBps(20);
      }
      config.overrides.emplace_back(0, sick);
    }
    SimEnvironment env(config);
    SparkExecutorSim spark(&env.sim(), &env.cluster(), &env.pool(), {});
    MonotasksExecutorSim mono(&env.sim(), &env.cluster(), &env.pool(), {});
    env.AttachExecutor(monotasks ? static_cast<ExecutorSim*>(&mono)
                                 : static_cast<ExecutorSim*>(&spark));
    monoload::SortParams params;
    params.total_bytes = GiB(8);
    params.values_per_key = 100;
    params.num_map_tasks = 64;
    params.num_reduce_tasks = 64;
    return env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), params)).duration();
  };
  EXPECT_GT(run(true, true), run(false, true));
  EXPECT_GT(run(true, false), run(false, false));
}

TEST(ReplicationLocalityTest, ReplicaHoldersReadLocally) {
  // With replication 2, a task taken by its *second* replica's machine must still
  // be a local read (from that machine's copy), not a remote fetch.
  SimEnvironment env(ClusterConfig::Of(4, MachineConfig::HddWorker(2)),
                     /*dfs_replication=*/2);
  const DfsFile& file = env.dfs().CreateFileWithBlocks("input", MiB(512), 8);

  JobSpec job;
  job.name = "replicated";
  StageSpec stage;
  stage.name = "scan";
  stage.num_tasks = 8;
  stage.input = InputSource::kDfs;
  stage.input_file = "input";
  stage.cpu_seconds_per_task = 0.1;
  job.stages = {stage};
  monoutil::Rng rng(5);
  StageExecution exec(job, 0, 4, &env.dfs(), nullptr, &rng);

  int local_takes = 0;
  for (size_t b = 0; b < file.blocks.size(); ++b) {
    ASSERT_EQ(file.replicas(b).size(), 2u);
  }
  // Take every task from the machine of its SECOND replica.
  for (size_t b = 0; b < file.blocks.size(); ++b) {
    const int second_holder = file.replicas(b)[1].machine;
    auto task = exec.TakeTask(second_holder);
    ASSERT_TRUE(task.has_value());
    if (task->input_local) {
      ++local_takes;
      EXPECT_EQ(task->input_machine, task->machine);
    }
  }
  // Every take was satisfied by a local replica (each machine holds replicas of the
  // blocks it was asked for, possibly a different block than the loop intended, but
  // always one of its own).
  EXPECT_EQ(local_takes, 8);
}

TEST(ReplicationLocalityTest, NonHolderReadsRemotelyFromPrimary) {
  SimEnvironment env(ClusterConfig::Of(8, MachineConfig::HddWorker(1)),
                     /*dfs_replication=*/1);
  const DfsFile& file = env.dfs().CreateFileWithBlocks("input", MiB(128), 1);
  const int home = file.replicas(0)[0].machine;
  JobSpec job;
  job.name = "remote";
  StageSpec stage;
  stage.name = "scan";
  stage.num_tasks = 1;
  stage.input = InputSource::kDfs;
  stage.input_file = "input";
  stage.cpu_seconds_per_task = 0.1;
  job.stages = {stage};
  monoutil::Rng rng(5);
  StageExecution exec(job, 0, 8, &env.dfs(), nullptr, &rng);
  const int thief = (home + 1) % 8;
  auto task = exec.TakeTask(thief);
  ASSERT_TRUE(task.has_value());
  EXPECT_FALSE(task->input_local);
  EXPECT_EQ(task->input_machine, home);
  EXPECT_EQ(task->input_disk, file.replicas(0)[0].disk);
}

TEST(ReplicationLocalityTest, ReplicatedJobRunsWithLessRemoteTraffic) {
  auto network_bytes = [](int replication) {
    SimEnvironment env(ClusterConfig::Of(4, MachineConfig::HddWorker(2)), replication);
    MonotasksExecutorSim mono(&env.sim(), &env.cluster(), &env.pool(), {});
    env.AttachExecutor(&mono);
    monoload::ReadComputeParams params;
    params.total_bytes = GiB(4);
    params.num_tasks = 32;
    // Cheap compute so machines finish unevenly and stealing happens.
    params.cpu_ns_per_byte = 5.0;
    const JobResult result =
        env.driver().RunJob(monoload::MakeReadComputeJob(&env.dfs(), params));
    return result.stages[0].usage.network_bytes;
  };
  // More replicas -> more machines can run any given task locally -> no more remote
  // traffic than the unreplicated layout.
  EXPECT_LE(network_bytes(3), network_bytes(1));
}


TEST(QueueVisibilityTest, ContentionShowsAsQueueLength) {
  // A disk-bound job: the disk schedulers' queues grow while the CPU queue stays
  // short — §3.1's "contention visible as queue length", measurable directly.
  SimEnvironment env(ClusterConfig::Of(2, MachineConfig::HddWorker(1)));
  MonotasksExecutorSim mono(&env.sim(), &env.cluster(), &env.pool(), {});
  mono.EnableQueueTraces();
  env.AttachExecutor(&mono);
  monoload::SortParams params;
  params.total_bytes = GiB(8);
  params.values_per_key = 200;  // Disk-heavy.
  params.num_map_tasks = 64;
  params.num_reduce_tasks = 64;
  const JobResult result = env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), params));

  const auto& disk_queue = mono.disk_scheduler(0, 0).queue_trace();
  const auto& cpu_queue = mono.cpu_scheduler(0).queue_trace();
  const double window = result.duration().seconds();
  const double mean_disk_queue = disk_queue.Integrate(monoutil::SimTime(), monoutil::Seconds(window)) / window;
  const double mean_cpu_queue = cpu_queue.Integrate(monoutil::SimTime(), monoutil::Seconds(window)) / window;
  EXPECT_GT(mean_disk_queue, 1.0);             // The bottleneck has a real queue...
  EXPECT_LT(mean_cpu_queue, mean_disk_queue);  // ...and the CPU does not.
}

}  // namespace
}  // namespace monosim
