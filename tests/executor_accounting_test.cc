// Pins the accounting both executors do beside the event stream: the peak of
// buffered task data, the completion counters, every ground-truth usage field,
// the per-machine shuffle-write totals and the MonotaskLog size. The event
// digests fold only fired events, so a counter or a usage sum could drift while
// every digest stays put; these values were recorded from the executors as
// they ran and must not move under a refactor of the executor plumbing.
#include <cstdio>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/tracing/metrics_registry.h"
#include "src/framework/environment.h"
#include "src/framework/stage_execution.h"
#include "src/monotask/mono_executor.h"
#include "src/multitask/spark_executor.h"
#include "src/workloads/bdb.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"

namespace monosim {
namespace {

constexpr uint64_t kSeed = 2;

enum class Workload { kSort, kBdb2a, kBdb3c };

struct PinCase {
  const char* name;
  bool mono;
  Workload workload;
  bool ssd;
  const char* expected;
};

// Prints a case as its name, so the test's listed name holds no addresses.
void PrintTo(const PinCase& pin, std::ostream* os) { *os << pin.name; }

ClusterConfig ClusterFor(const PinCase& pin) {
  ClusterConfig config = pin.workload == Workload::kSort ? monoload::SmallHddClusterConfig()
                                                         : monoload::BdbClusterConfig(pin.ssd);
  config.seed = kSeed;
  return config;
}

JobSpec JobFor(const PinCase& pin, SimEnvironment& env) {
  if (pin.workload == Workload::kSort) {
    monoload::SortParams params;
    params.total_bytes = monoutil::GiB(4);
    params.num_map_tasks = 32;
    params.num_reduce_tasks = 32;
    params.seed = kSeed;
    return monoload::MakeSortJob(&env.dfs(), params);
  }
  return monoload::MakeBdbQueryJob(
      &env.dfs(), pin.workload == Workload::kBdb2a ? monoload::BdbQuery::k2a
                                                   : monoload::BdbQuery::k3c,
      kSeed);
}

std::unique_ptr<ExecutorSim> ExecutorFor(const PinCase& pin, SimEnvironment& env) {
  if (pin.mono) {
    return std::make_unique<MonotasksExecutorSim>(&env.sim(), &env.cluster(), &env.pool());
  }
  return std::make_unique<SparkExecutorSim>(&env.sim(), &env.cluster(), &env.pool());
}

double CounterValue(const char* name) {
  return monotrace::MetricsRegistry::Global().Get(name)->value();
}

// Runs the job stage by stage the way JobDriver does, but keeps the
// StageExecutions, whose per-machine shuffle-write totals JobResult does not
// carry. Returns one line per shuffle-writing stage.
std::string ShuffleWrites(const PinCase& pin) {
  SimEnvironment env(ClusterFor(pin));
  const std::unique_ptr<ExecutorSim> executor = ExecutorFor(pin, env);
  const JobSpec job = JobFor(pin, env);
  monoutil::Rng rng(job.seed);
  std::vector<std::unique_ptr<StageExecution>> stages;
  std::function<void()> activate_next = [&] {
    if (stages.size() == job.stages.size()) {
      return;
    }
    const StageExecution* prev = stages.empty() ? nullptr : stages.back().get();
    stages.push_back(std::make_unique<StageExecution>(
        job, static_cast<int>(stages.size()), env.cluster().num_machines(), &env.dfs(),
        prev, &rng));
    StageExecution* stage = stages.back().get();
    stage->set_on_complete([&env, &activate_next, stage] {
      env.pool().RemoveStage(stage);
      activate_next();
    });
    stage->Activate(env.sim().now());
    env.pool().AddStage(stage);
    executor->OnWorkAvailable();
  };
  activate_next();
  env.sim().Run();
  std::string out;
  for (const auto& stage : stages) {
    if (stage->spec().output != OutputSink::kShuffle) {
      continue;
    }
    out += " shuffle:" + stage->spec().name;
    for (const monoutil::Bytes bytes : stage->shuffle_bytes_per_machine()) {
      out += " " + std::to_string(bytes.count());
    }
    out += "\n";
  }
  return out;
}

std::string Fingerprint(const PinCase& pin) {
  SimEnvironment env(ClusterFor(pin));
  const std::unique_ptr<ExecutorSim> executor = ExecutorFor(pin, env);
  env.AttachExecutor(executor.get());
  const double spark_before = CounterValue("spark.tasks_completed");
  const double mono_before = CounterValue("mono.multitasks_completed");
  const JobResult result = env.driver().RunJob(JobFor(pin, env));
  char line[512];
  std::snprintf(line, sizeof(line), "peak=%lld spark_done=%.17g mono_done=%.17g log=%zu\n",
                static_cast<long long>(result.peak_buffered_bytes.count()),
                CounterValue("spark.tasks_completed") - spark_before,
                CounterValue("mono.multitasks_completed") - mono_before,
                env.monotask_log().records().size());
  std::string out = line;
  for (const StageResult& stage : result.stages) {
    const StageResourceUsage& u = stage.usage;
    std::snprintf(line, sizeof(line),
                  " %s: cpu=%.17g deser=%.17g decompress=%.17g read=%lld input_read=%lld "
                  "input_uncompressed=%lld write=%lld net=%lld\n",
                  stage.name.c_str(), u.cpu_seconds, u.deser_cpu_seconds,
                  u.decompress_cpu_seconds, static_cast<long long>(u.disk_read_bytes.count()),
                  static_cast<long long>(u.input_disk_read_bytes.count()),
                  static_cast<long long>(u.input_uncompressed_bytes.count()),
                  static_cast<long long>(u.disk_write_bytes.count()),
                  static_cast<long long>(u.network_bytes.count()));
    out += line;
  }
  return out + ShuffleWrites(pin);
}

class ExecutorAccountingPinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(ExecutorAccountingPinTest, MatchesRecordedAccounting) {
  EXPECT_EQ(Fingerprint(GetParam()), GetParam().expected);
}

const PinCase kPins[] = {
    {"spark_sort", false, Workload::kSort, false,
     "peak=630096620 spark_done=64 mono_done=0 log=0\n"
     " sort.map: cpu=348.09687322819053 deser=121.83390562986668 decompress=0 read=4294967296"
     " input_read=4294967296 input_uncompressed=4294967296 write=4294967296 net=0\n"
     " sort.reduce: cpu=382.90656055100959 deser=107.21383695428267 decompress=0"
     " read=4294967296 input_read=0 input_uncompressed=0 write=4294967296 net=3431376798\n"
     " shuffle:sort.map 922552725 939212100 795074996 816268315 821859160\n"},
    {"mono_sort", true, Workload::kSort, false,
     "peak=944815079 spark_done=0 mono_done=64 log=448\n"
     " sort.map: cpu=348.09687322819053 deser=121.83390562986668 decompress=0 read=4294967296"
     " input_read=4294967296 input_uncompressed=4294967296 write=4294967296 net=0\n"
     " sort.reduce: cpu=382.90656055100959 deser=107.21383695428267 decompress=0"
     " read=4294967296 input_read=0 input_uncompressed=0 write=4294967296 net=3431376798\n"
     " shuffle:sort.map 922552725 939212100 795074996 816268315 821859160\n"},
    {"spark_bdb2a_hdd", false, Workload::kBdb2a, false,
     "peak=101129178 spark_done=560 mono_done=0 log=0\n"
     " bdb.2a.map: cpu=4509.7156608000005 deser=1127.4289152000001"
     " decompress=541.16587929600007 read=42949672960 input_read=42949672960"
     " input_uncompressed=107374182400 write=1073741824 net=0\n"
     " bdb.2a.reduce: cpu=107.3741824 deser=26.843545599999999 decompress=0 read=1073741824"
     " input_read=0 input_uncompressed=0 write=536870912 net=858993165\n"
     " shuffle:bdb.2a.map 214884098 214947770 213823089 214855169 215231698\n"},
    {"mono_bdb2a_hdd", true, Workload::kBdb2a, false,
     "peak=1342177290 spark_done=0 mono_done=560 log=2320\n"
     " bdb.2a.map: cpu=4509.7156608000005 deser=1127.4289152000001"
     " decompress=541.16587929600007 read=42949672960 input_read=42949672960"
     " input_uncompressed=107374182400 write=1073741824 net=0\n"
     " bdb.2a.reduce: cpu=107.3741824 deser=26.843545599999999 decompress=0 read=1073741824"
     " input_read=0 input_uncompressed=0 write=536870912 net=858995215\n"
     " shuffle:bdb.2a.map 214884098 214947770 213823089 214855169 215231698\n"},
    {"spark_bdb2a_ssd", false, Workload::kBdb2a, true,
     "peak=107978846 spark_done=560 mono_done=0 log=0\n"
     " bdb.2a.map: cpu=4509.7156608000005 deser=1127.4289152000001"
     " decompress=541.16587929600007 read=42949672960 input_read=42949672960"
     " input_uncompressed=107374182400 write=1073741824 net=0\n"
     " bdb.2a.reduce: cpu=107.3741824 deser=26.843545599999999 decompress=0 read=1073741824"
     " input_read=0 input_uncompressed=0 write=536870912 net=858993146\n"
     " shuffle:bdb.2a.map 214884098 214947770 213823089 214855169 215231698\n"},
    {"mono_bdb2a_ssd", true, Workload::kBdb2a, true,
     "peak=1879048206 spark_done=0 mono_done=560 log=2323\n"
     " bdb.2a.map: cpu=4509.7156608000005 deser=1127.4289152000001"
     " decompress=541.16587929600007 read=42949672960 input_read=42949672960"
     " input_uncompressed=107374182400 write=1073741824 net=268435138\n"
     " bdb.2a.reduce: cpu=107.3741824 deser=26.843545599999999 decompress=0 read=1073741824"
     " input_read=0 input_uncompressed=0 write=536870912 net=858998174\n"
     " shuffle:bdb.2a.map 217214144 210310643 218391336 214855169 212970532\n"},
    {"spark_bdb3c_hdd", false, Workload::kBdb3c, false,
     "peak=1112110588 spark_done=728 mono_done=0 log=0\n"
     " bdb.3c.scan: cpu=5153.9607552000007 deser=1288.4901888000002"
     " decompress=618.47529062400008 read=51539607552 input_read=51539607552"
     " input_uncompressed=128849018880 write=21474836480 net=84768708\n"
     " bdb.3c.join: cpu=1073.7418240000002 deser=268.43545600000004 decompress=0"
     " read=21474836480 input_read=0 input_uncompressed=0 write=6442450944 net=17179975543\n"
     " bdb.3c.agg: cpu=515.39607552000007 deser=128.84901888000002 decompress=0 read=6442450944"
     " input_read=0 input_uncompressed=0 write=1288490188 net=5153949635\n"
     " shuffle:bdb.3c.scan 4342917378 4323740437 4258642010 4267460925 4282075730\n"
     " shuffle:bdb.3c.join 1286644024 1276196612 1281567692 1303735847 1294306769\n"},
    {"mono_bdb3c_hdd", true, Workload::kBdb3c, false,
     "peak=4061957429 spark_done=0 mono_done=728 log=3144\n"
     " bdb.3c.scan: cpu=5153.9607552000007 deser=1288.4901888000002"
     " decompress=618.47529062400008 read=51539607552 input_read=51539607552"
     " input_uncompressed=128849018880 write=21474836480 net=0\n"
     " bdb.3c.join: cpu=1073.7418240000002 deser=268.43545600000004 decompress=0"
     " read=21474836480 input_read=0 input_uncompressed=0 write=6442450944 net=17179870602\n"
     " bdb.3c.agg: cpu=515.39607552000007 deser=128.84901888000002 decompress=0 read=6442450944"
     " input_read=0 input_uncompressed=0 write=1288490188 net=5153941596\n"
     " shuffle:bdb.3c.scan 4308359413 4323740437 4293199975 4267460925 4282075730\n"
     " shuffle:bdb.3c.join 1280540454 1295211119 1287820843 1293451913 1285426615\n"},
    {"spark_bdb3c_ssd", false, Workload::kBdb3c, true,
     "peak=1503360469 spark_done=728 mono_done=0 log=0\n"
     " bdb.3c.scan: cpu=5153.9607552000007 deser=1288.4901888000002"
     " decompress=618.47529062400008 read=51539607552 input_read=51539607552"
     " input_uncompressed=128849018880 write=21474836480 net=84769092\n"
     " bdb.3c.join: cpu=1073.7418240000002 deser=268.43545600000004 decompress=0"
     " read=21474836480 input_read=0 input_uncompressed=0 write=6442450944 net=17179967340\n"
     " bdb.3c.agg: cpu=515.39607552000007 deser=128.84901888000002 decompress=0 read=6442450944"
     " input_read=0 input_uncompressed=0 write=1288490188 net=5153934665\n"
     " shuffle:bdb.3c.scan 4308359413 4288626763 4328313649 4267460925 4282075730\n"
     " shuffle:bdb.3c.join 1278322135 1288940763 1284445867 1300877196 1289864983\n"},
    {"mono_bdb3c_ssd", true, Workload::kBdb3c, true,
     "peak=4310676911 spark_done=0 mono_done=728 log=3147\n"
     " bdb.3c.scan: cpu=5153.9607552000007 deser=1288.4901888000002"
     " decompress=618.47529062400008 read=51539607552 input_read=51539607552"
     " input_uncompressed=128849018880 write=21474836480 net=254307276\n"
     " bdb.3c.join: cpu=1073.7418240000002 deser=268.43545600000004 decompress=0"
     " read=21474836480 input_read=0 input_uncompressed=0 write=6442450944 net=17179829431\n"
     " bdb.3c.agg: cpu=515.39607552000007 deser=128.84901888000002 decompress=0 read=6442450944"
     " input_read=0 input_uncompressed=0 write=1288490188 net=5153948180\n"
     " shuffle:bdb.3c.scan 4272534632 4322670033 4329024756 4304479769 4246127290\n"
     " shuffle:bdb.3c.join 1282548498 1293203075 1287820843 1290341543 1288536985\n"},
};

INSTANTIATE_TEST_SUITE_P(BothExecutors, ExecutorAccountingPinTest, ::testing::ValuesIn(kPins),
                         [](const ::testing::TestParamInfo<PinCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace monosim
