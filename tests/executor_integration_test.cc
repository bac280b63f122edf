// End-to-end tests running the same jobs through both execution architectures on the
// simulated cluster, checking completion, metric consistency, and the qualitative
// behaviours the paper reports.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/framework/environment.h"
#include "src/monotask/mono_executor.h"
#include "src/multitask/spark_executor.h"
#include "src/simcore/audit.h"

namespace monosim {
namespace {

using monoutil::GiB;
using monoutil::MiB;

// A 2-machine, 4-core, 2-HDD toy cluster for fast tests.
ClusterConfig SmallCluster() {
  MachineConfig machine = MachineConfig::HddWorker(2);
  machine.cores = 4;
  ClusterConfig config = ClusterConfig::Of(2, machine);
  return config;
}

// Map (DFS input -> shuffle) + reduce (shuffle -> DFS output), sized so every
// resource does nontrivial work.
JobSpec MapReduceJob(SimEnvironment* env, int map_tasks = 8, int reduce_tasks = 8) {
  env->dfs().CreateFileWithBlocks("input", MiB(512), map_tasks);
  JobSpec job;
  job.name = "test-mapreduce";
  StageSpec map;
  map.name = "map";
  map.num_tasks = map_tasks;
  map.input = InputSource::kDfs;
  map.input_file = "input";
  map.cpu_seconds_per_task = 0.4;
  map.deser_fraction = 0.3;
  map.output = OutputSink::kShuffle;
  map.shuffle_bytes = MiB(256);
  StageSpec reduce;
  reduce.name = "reduce";
  reduce.num_tasks = reduce_tasks;
  reduce.input = InputSource::kShuffle;
  reduce.input_bytes = MiB(256);
  reduce.cpu_seconds_per_task = 0.3;
  reduce.output = OutputSink::kDfs;
  reduce.output_bytes = MiB(128);
  job.stages = {map, reduce};
  return job;
}

JobResult RunWithSpark(SimEnvironment* env, JobSpec job, SparkConfig config = {}) {
  SparkExecutorSim executor(&env->sim(), &env->cluster(), &env->pool(), config);
  env->AttachExecutor(&executor);
  return env->driver().RunJob(std::move(job));
}

JobResult RunWithMonotasks(SimEnvironment* env, JobSpec job, MonoConfig config = {}) {
  MonotasksExecutorSim executor(&env->sim(), &env->cluster(), &env->pool(), config);
  env->AttachExecutor(&executor);
  return env->driver().RunJob(std::move(job));
}

TEST(ExecutorIntegrationTest, SparkRunsMapReduceToCompletion) {
  SimEnvironment env(SmallCluster());
  const JobResult result = RunWithSpark(&env, MapReduceJob(&env));
  ASSERT_EQ(result.stages.size(), 2u);
  EXPECT_GT(result.duration(), monoutil::SimTime());
  EXPECT_EQ(result.stages[0].num_tasks, 8);
  EXPECT_EQ(result.stages[1].num_tasks, 8);
  // Stages execute with a barrier.
  EXPECT_GE(result.stages[1].start, result.stages[0].end);
  EXPECT_LE(result.stages[1].end, result.end);
}

TEST(ExecutorIntegrationTest, MonotasksRunsMapReduceToCompletion) {
  SimEnvironment env(SmallCluster());
  const JobResult result = RunWithMonotasks(&env, MapReduceJob(&env));
  ASSERT_EQ(result.stages.size(), 2u);
  EXPECT_GT(result.duration(), monoutil::SimTime());
  EXPECT_GE(result.stages[1].start, result.stages[0].end);
}

TEST(ExecutorIntegrationTest, GroundTruthUsageMatchesSpec) {
  SimEnvironment env(SmallCluster());
  const JobResult result = RunWithMonotasks(&env, MapReduceJob(&env));
  const auto& map = result.stages[0];
  // Map: reads 512 MiB of input, writes 256 MiB of shuffle, 8 * 0.4 s of CPU.
  EXPECT_EQ(map.usage.disk_read_bytes, MiB(512));
  EXPECT_EQ(map.usage.disk_write_bytes, MiB(256));
  EXPECT_NEAR(map.usage.cpu_seconds, 3.2, 1e-9);
  EXPECT_NEAR(map.usage.deser_cpu_seconds, 3.2 * 0.3, 1e-9);
  const auto& reduce = result.stages[1];
  // Reduce: reads all shuffle data from disk (local and serve-side), writes output.
  EXPECT_EQ(reduce.usage.disk_read_bytes, MiB(256));
  EXPECT_EQ(reduce.usage.disk_write_bytes, MiB(128));
  // Roughly half the shuffle crosses the network on a 2-machine cluster.
  EXPECT_GT(reduce.usage.network_bytes, MiB(64));
  EXPECT_LT(reduce.usage.network_bytes, MiB(224));
}

TEST(ExecutorIntegrationTest, SparkUsageMatchesMonotasksUsage) {
  // Ground-truth work is a property of the job, not the architecture.
  SimEnvironment env_spark(SmallCluster());
  const JobResult spark = RunWithSpark(&env_spark, MapReduceJob(&env_spark));
  SimEnvironment env_mono(SmallCluster());
  const JobResult mono = RunWithMonotasks(&env_mono, MapReduceJob(&env_mono));
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(spark.stages[s].usage.disk_read_bytes, mono.stages[s].usage.disk_read_bytes);
    EXPECT_EQ(spark.stages[s].usage.disk_write_bytes,
              mono.stages[s].usage.disk_write_bytes);
    EXPECT_NEAR(spark.stages[s].usage.cpu_seconds, mono.stages[s].usage.cpu_seconds,
                1e-9);
  }
}

TEST(ExecutorIntegrationTest, MonotaskTimesAreOnlyReportedByMonotasks) {
  SimEnvironment env_spark(SmallCluster());
  const JobResult spark = RunWithSpark(&env_spark, MapReduceJob(&env_spark));
  EXPECT_EQ(spark.stages[0].monotask_times.compute_count, 0);

  SimEnvironment env_mono(SmallCluster());
  const JobResult mono = RunWithMonotasks(&env_mono, MapReduceJob(&env_mono));
  const auto& map_times = mono.stages[0].monotask_times;
  EXPECT_EQ(map_times.compute_count, 8);
  // One input read + one shuffle write per map task.
  EXPECT_EQ(map_times.disk_count, 16);
  EXPECT_NEAR(map_times.compute_seconds, 3.2, 0.01);
  EXPECT_GT(map_times.disk_read_seconds, 0.0);
  EXPECT_GT(map_times.disk_write_seconds, 0.0);
  const auto& reduce_times = mono.stages[1].monotask_times;
  EXPECT_EQ(reduce_times.compute_count, 8);
  EXPECT_GT(reduce_times.network_count, 0);
  EXPECT_GT(reduce_times.network_seconds, 0.0);
}

TEST(ExecutorIntegrationTest, MonotaskDiskServiceTimesAreIdeal) {
  // One monotask per HDD at a time means disk service time == bytes / bandwidth.
  SimEnvironment env(SmallCluster());
  const JobResult result = RunWithMonotasks(&env, MapReduceJob(&env));
  const auto& map_times = result.stages[0].monotask_times;
  const double bandwidth = SmallCluster().machine.disks[0].bandwidth.bps();
  const double ideal_read_seconds = static_cast<double>(MiB(512).count()) / bandwidth;
  EXPECT_NEAR(map_times.disk_read_seconds, ideal_read_seconds,
              ideal_read_seconds * 0.02);
}

TEST(ExecutorIntegrationTest, MonotasksUsesMoreMemoryThanSpark) {
  // §3.5: all of a multitask's data is materialized in memory around the compute
  // monotask, unlike pipelined chunks.
  SimEnvironment env_spark(SmallCluster());
  const JobResult spark = RunWithSpark(&env_spark, MapReduceJob(&env_spark));
  SimEnvironment env_mono(SmallCluster());
  const JobResult mono = RunWithMonotasks(&env_mono, MapReduceJob(&env_mono));
  EXPECT_GT(mono.peak_buffered_bytes, spark.peak_buffered_bytes);
}

TEST(ExecutorIntegrationTest, DeterministicAcrossRuns) {
  SimEnvironment env1(SmallCluster());
  const JobResult r1 = RunWithMonotasks(&env1, MapReduceJob(&env1));
  SimEnvironment env2(SmallCluster());
  const JobResult r2 = RunWithMonotasks(&env2, MapReduceJob(&env2));
  EXPECT_DOUBLE_EQ(r1.duration().seconds(), r2.duration().seconds());
  EXPECT_DOUBLE_EQ(r1.stages[0].end.seconds(), r2.stages[0].end.seconds());
}

TEST(ExecutorIntegrationTest, SparkWriteThroughIsSlowerForWriteHeavyJobs) {
  // A write-heavy single-stage job: forcing writes to disk must not be faster.
  auto make_job = [](SimEnvironment* env) {
    env->dfs().CreateFileWithBlocks("input", MiB(64), 8);
    JobSpec job;
    job.name = "write-heavy";
    StageSpec stage;
    stage.name = "write";
    stage.num_tasks = 8;
    stage.input = InputSource::kDfs;
    stage.input_file = "input";
    stage.cpu_seconds_per_task = 0.05;
    stage.output = OutputSink::kDfs;
    stage.output_bytes = GiB(1);
    job.stages = {stage};
    return job;
  };
  SimEnvironment env_lazy(SmallCluster());
  SparkConfig lazy;
  const JobResult lazy_result = RunWithSpark(&env_lazy, make_job(&env_lazy), lazy);
  SimEnvironment env_flush(SmallCluster());
  SparkConfig flush;
  flush.write_through = true;
  const JobResult flush_result = RunWithSpark(&env_flush, make_job(&env_flush), flush);
  EXPECT_GT(flush_result.duration(), lazy_result.duration() * 0.99);
}

TEST(ExecutorIntegrationTest, InMemoryInputSkipsDiskReads) {
  SimEnvironment env(SmallCluster());
  JobSpec job;
  job.name = "cached";
  StageSpec stage;
  stage.name = "scan";
  stage.num_tasks = 8;
  stage.input = InputSource::kMemory;
  stage.input_bytes = MiB(512);
  stage.cpu_seconds_per_task = 0.2;
  job.stages = {stage};
  const JobResult result = RunWithMonotasks(&env, job);
  EXPECT_EQ(result.stages[0].usage.disk_read_bytes, monoutil::Bytes(0));
  EXPECT_EQ(result.stages[0].monotask_times.disk_count, 0);
  EXPECT_EQ(result.stages[0].monotask_times.compute_count, 8);
}

TEST(ExecutorIntegrationTest, ShuffleToMemorySkipsDiskEntirely) {
  SimEnvironment env(SmallCluster());
  JobSpec job;
  job.name = "ml-like";
  StageSpec map;
  map.name = "map";
  map.num_tasks = 8;
  map.input = InputSource::kMemory;
  map.input_bytes = MiB(128);
  map.cpu_seconds_per_task = 0.2;
  map.output = OutputSink::kShuffle;
  map.shuffle_bytes = MiB(128);
  map.shuffle_to_memory = true;
  StageSpec reduce;
  reduce.name = "reduce";
  reduce.num_tasks = 8;
  reduce.input = InputSource::kShuffle;
  reduce.input_bytes = MiB(128);
  reduce.cpu_seconds_per_task = 0.2;
  job.stages = {map, reduce};
  const JobResult result = RunWithMonotasks(&env, job);
  EXPECT_EQ(result.stages[0].usage.disk_write_bytes, monoutil::Bytes(0));
  EXPECT_EQ(result.stages[1].usage.disk_read_bytes, monoutil::Bytes(0));
  EXPECT_GT(result.stages[1].usage.network_bytes, monoutil::Bytes(0));
}

TEST(ExecutorIntegrationTest, UtilizationFilledWhenTracingEnabled) {
  SimEnvironment env(SmallCluster());
  env.cluster().EnableTrace();
  const JobResult result = RunWithMonotasks(&env, MapReduceJob(&env));
  const auto& util = result.stages[0].utilization;
  ASSERT_EQ(util.cpu.size(), 2u);
  ASSERT_EQ(util.disk.size(), 2u);
  for (double u : util.cpu) {
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  for (double u : util.disk) {
    EXPECT_GT(u, 0.0);
  }
}

TEST(ExecutorIntegrationTest, ConcurrentJobsBothComplete) {
  SimEnvironment env(SmallCluster());
  MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), MonoConfig{});
  env.AttachExecutor(&executor);
  env.dfs().CreateFileWithBlocks("input", MiB(512), 8);

  auto make_job = [](const std::string& name) {
    JobSpec job;
    job.name = name;
    StageSpec stage;
    stage.name = "scan";
    stage.num_tasks = 8;
    stage.input = InputSource::kDfs;
    stage.input_file = "input";
    stage.cpu_seconds_per_task = 0.3;
    job.stages = {stage};
    return job;
  };

  int completed = 0;
  env.driver().SubmitJob(make_job("job-a"), [&](JobResult) { ++completed; });
  env.driver().SubmitJob(make_job("job-b"), [&](JobResult) { ++completed; });
  env.sim().Run();
  EXPECT_EQ(completed, 2);
}

TEST(ExecutorIntegrationTest, MonotaskMultitaskLimitFollowsFormula) {
  SimEnvironment env(SmallCluster());
  MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), MonoConfig{});
  // 4 cores + 2 HDDs * 1 + network 4 + 1 extra = 11.
  EXPECT_EQ(executor.MultitaskLimit(0), 11);
}

TEST(ExecutorIntegrationTest, SsdMultitaskLimitCountsChannels) {
  MachineConfig machine = MachineConfig::SsdWorker(2);
  machine.cores = 8;
  SimEnvironment env(ClusterConfig::Of(2, machine));
  MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), MonoConfig{});
  // 8 cores + 2 SSDs * 4 + network 4 + 1 extra = 21.
  EXPECT_EQ(executor.MultitaskLimit(0), 21);
}

TEST(ExecutorIntegrationTest, LoadAwareWritesPickTheShortestWriteQueue) {
  SimEnvironment env(SmallCluster());
  MonoConfig config;
  config.load_aware_disk_writes = true;
  MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), config);
  auto queue_writes = [&](int disk, int count) {
    for (int i = 0; i < count; ++i) {
      executor.disk_scheduler(0, disk).EnqueueWrite(MiB(1), [](SimTime, SimTime) {});
    }
  };
  EXPECT_EQ(executor.PickWriteDisk(0), 0);  // Equal depths: the lowest index.
  queue_writes(0, 2);                       // Disk 0: one running, one queued.
  EXPECT_EQ(executor.PickWriteDisk(0), 1);
  EXPECT_EQ(executor.PickWriteDisk(0), 1);  // Picking queues nothing by itself.
  queue_writes(1, 3);
  EXPECT_EQ(executor.PickWriteDisk(0), 0);
  env.sim().Run();

  // The default placement is round-robin whatever the queues hold.
  SimEnvironment rr_env(SmallCluster());
  MonotasksExecutorSim round_robin(&rr_env.sim(), &rr_env.cluster(), &rr_env.pool(),
                                   MonoConfig{});
  round_robin.disk_scheduler(0, 0).EnqueueWrite(MiB(1), [](SimTime, SimTime) {});
  EXPECT_EQ(round_robin.PickWriteDisk(0), 0);
  EXPECT_EQ(round_robin.PickWriteDisk(0), 1);
  EXPECT_EQ(round_robin.PickWriteDisk(0), 0);
  rr_env.sim().Run();
}

// Each executor's own drain audit: clean after a job, and a buffered byte that
// is never released is reported at drain from that executor's source.
template <typename Executor>
class ExecutorDrainAuditTest : public ::testing::Test {};

template <typename Executor>
constexpr const char* kAuditSource = "";
template <>
constexpr const char* kAuditSource<SparkExecutorSim> = "spark-executor";
template <>
constexpr const char* kAuditSource<MonotasksExecutorSim> = "mono-executor";

using BothExecutors = ::testing::Types<SparkExecutorSim, MonotasksExecutorSim>;
TYPED_TEST_SUITE(ExecutorDrainAuditTest, BothExecutors);

TYPED_TEST(ExecutorDrainAuditTest, CleanJobPassesAndLeakedBufferIsReported) {
  SimEnvironment env(SmallCluster());
  TypeParam executor(&env.sim(), &env.cluster(), &env.pool());
  env.AttachExecutor(&executor);
  {
    ScopedAudit clean(ScopedAudit::kReport);
    env.driver().RunJob(MapReduceJob(&env));
    EXPECT_TRUE(clean.audit().ok()) << clean.audit().Summary();
    EXPECT_GT(clean.audit().checks_run(), 0u);
  }
  ScopedAudit leaked(ScopedAudit::kReport);
  executor.AddBuffered(1, monoutil::Bytes(1));
  env.sim().Run();  // Nothing is pending, so this only runs the drain audit.
  ASSERT_EQ(leaked.audit().violations().size(), 1u) << leaked.audit().Summary();
  const AuditViolation& violation = leaked.audit().violations().front();
  EXPECT_EQ(violation.invariant, "drained-buffered-bytes");
  EXPECT_EQ(violation.source, kAuditSource<TypeParam>);
  EXPECT_NE(violation.detail.find("machine 1"), std::string::npos) << violation.detail;
}

}  // namespace
}  // namespace monosim
