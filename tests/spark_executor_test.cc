// Focused tests of the Spark-baseline executor's mechanisms: slots, buffer-cache
// vs write-through writes, chunk jitter, and the shuffle-serve concurrency cap.
#include <gtest/gtest.h>

#include "src/framework/environment.h"
#include "src/multitask/spark_executor.h"
#include "src/simcore/audit.h"
#include "src/workloads/read_compute.h"
#include "src/workloads/sort.h"

namespace monosim {
namespace {

using monoutil::GiB;
using monoutil::MiB;

ClusterConfig TinyCluster(int machines = 2) {
  MachineConfig machine = MachineConfig::HddWorker(2);
  machine.cores = 4;
  return ClusterConfig::Of(machines, machine);
}

JobResult RunSort(const ClusterConfig& cluster, SparkConfig config,
                  monoutil::Bytes bytes = MiB(512), int tasks = 16) {
  SimEnvironment env(cluster);
  SparkExecutorSim spark(&env.sim(), &env.cluster(), &env.pool(), config);
  env.AttachExecutor(&spark);
  monoload::SortParams params;
  params.total_bytes = bytes;
  params.num_map_tasks = tasks;
  params.num_reduce_tasks = tasks;
  return env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), params));
}

TEST(SparkExecutorTest, SlotCountBoundsConcurrency) {
  // With s slots per machine, at most s * machines tasks can be in flight: stage
  // task-seconds is bounded by slots * wall time.
  for (int slots : {1, 2, 8}) {
    SparkConfig config;
    config.slots_per_machine = slots;
    const JobResult result = RunSort(TinyCluster(), config);
    for (const auto& stage : result.stages) {
      const double capacity = static_cast<double>(slots) * 2 * stage.duration().seconds();
      EXPECT_LE(stage.task_seconds, capacity * 1.001)
          << "slots=" << slots << " stage=" << stage.name;
    }
  }
}

TEST(SparkExecutorTest, FewerSlotsSlowCpuBoundJobs) {
  SparkConfig one_slot;
  one_slot.slots_per_machine = 1;
  SparkConfig four_slots;
  four_slots.slots_per_machine = 4;
  const double slow = RunSort(TinyCluster(), one_slot).duration().seconds();
  const double fast = RunSort(TinyCluster(), four_slots).duration().seconds();
  EXPECT_GT(slow, fast * 1.5);
}

TEST(SparkExecutorTest, LazyWritesStayInCacheWhenSmall) {
  // A small job's writes fit under the dirty limit: no disk writes happen during
  // the job with lazy (default) writes, but do with write-through.
  auto disk_writes = [](bool write_through) {
    SimEnvironment env(TinyCluster());
    SparkConfig config;
    config.write_through = write_through;
    SparkExecutorSim spark(&env.sim(), &env.cluster(), &env.pool(), config);
    env.AttachExecutor(&spark);
    monoload::ReadComputeParams params;  // Single stage job...
    params.total_bytes = MiB(64);
    params.num_tasks = 8;
    JobSpec job = monoload::MakeReadComputeJob(&env.dfs(), params);
    job.stages[0].output = OutputSink::kDfs;  // ...that writes 64 MiB of output.
    job.stages[0].output_bytes = MiB(64);
    // Sample the device counters at *job completion*: the OS flushes the cache
    // eventually (the simulation drains those events afterwards), but by then the
    // job's runtime was already unaffected — exactly the §5.3 visibility gap.
    monoutil::Bytes written_at_completion;
    env.driver().SubmitJob(job, [&](JobResult) {
      for (int m = 0; m < env.cluster().num_machines(); ++m) {
        for (int d = 0; d < env.cluster().machine(m).num_disks(); ++d) {
          written_at_completion += env.cluster().machine(m).disk(d).bytes_written();
        }
      }
    });
    env.sim().Run();
    return written_at_completion;
  };
  EXPECT_EQ(disk_writes(false), monoutil::Bytes(0));  // Absorbed by the cache (the 1c effect).
  // Forced to disk (chunked writes truncate a few fractional bytes per chunk).
  EXPECT_NEAR(static_cast<double>(disk_writes(true).count()),
              static_cast<double>(MiB(64).count()),
              1024.0);
}

TEST(SparkExecutorTest, WriteThroughIsNeverFasterForWriteHeavyJobs) {
  SparkConfig lazy;
  SparkConfig flush;
  flush.write_through = true;
  const double lazy_seconds = RunSort(TinyCluster(), lazy, GiB(4), 32).duration().seconds();
  const double flush_seconds = RunSort(TinyCluster(), flush, GiB(4), 32).duration().seconds();
  EXPECT_GE(flush_seconds, lazy_seconds * 0.999);
}

TEST(SparkExecutorTest, ChunkJitterPreservesMeanRuntime) {
  SparkConfig smooth;
  SparkConfig jittery;
  jittery.chunk_cpu_jitter_cv = 0.5;
  const double base = RunSort(TinyCluster(), smooth).duration().seconds();
  const double jittered = RunSort(TinyCluster(), jittery).duration().seconds();
  // Lognormal with mean 1: runtime within ~15% of the deterministic run.
  EXPECT_NEAR(jittered, base, base * 0.15);
}

TEST(SparkExecutorTest, ServeConcurrencyCapLimitsShuffleServiceThrash) {
  // A lower serve cap reduces disk contention during the reduce stage's shuffle
  // serving; a huge cap must not be faster than the bounded pool.
  SparkConfig bounded;
  bounded.serve_read_concurrency = 4;
  SparkConfig unbounded;
  unbounded.serve_read_concurrency = 64;
  const double with_cap = RunSort(TinyCluster(4), bounded, GiB(4), 64).duration().seconds();
  const double without = RunSort(TinyCluster(4), unbounded, GiB(4), 64).duration().seconds();
  EXPECT_LE(with_cap, without * 1.02);
}

TEST(SparkExecutorTest, DeterministicWithJitterSeed) {
  SparkConfig config;
  config.chunk_cpu_jitter_cv = 0.5;
  const double first = RunSort(TinyCluster(), config).duration().seconds();
  const double second = RunSort(TinyCluster(), config).duration().seconds();
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(SparkExecutorTest, ShuffleReadersReleaseEveryBufferedByte) {
  // Reduce tasks fetch their shuffle portions whole, and an odd-sized sort
  // splits into chunks that are not whole bytes: the last chunk must release
  // what the equal whole-byte chunks left over, or the drain audit finds
  // buffered bytes still counted after the job.
  ScopedAudit scoped(ScopedAudit::kReport);
  RunSort(TinyCluster(), SparkConfig{}, MiB(512) + monoutil::Bytes(12345), 7);
  EXPECT_TRUE(scoped.audit().ok()) << scoped.audit().Summary();
  EXPECT_GT(scoped.audit().checks_run(), 0u);
}

}  // namespace
}  // namespace monosim
