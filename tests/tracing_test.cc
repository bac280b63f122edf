// Tests for the event-tracing subsystem: tracer JSON well-formedness, span
// pairing and lane non-overlap, timestamp ordering, span-time conservation
// against the executors' MonotaskTimes accounting, metrics, and the
// tracer-off zero-allocation guarantee.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/tracer.h"
#include "src/framework/environment.h"
#include "src/framework/monotask_log.h"
#include "src/model/monotasks_model.h"
#include "src/model/trace_report.h"
#include "src/monotask/mono_executor.h"
#include "src/multitask/spark_executor.h"
#include "src/simcore/audit.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"

// The zero-allocation test counts global operator new calls via the shared
// test-binary-wide hooks (alloc_hooks.cc); sanitizer builds compile them out.
#include "tests/alloc_hooks.h"

namespace {

using monomodel::ParseChromeTrace;
using monomodel::ParsedTrace;
using monomodel::TraceReport;
using monoutil::GiB;

monoload::SortParams DiskBoundSort() {
  monoload::SortParams params;
  params.total_bytes = GiB(8);
  params.values_per_key = 50;  // Disk-bound on 2-HDD workers.
  params.num_map_tasks = 32;
  params.num_reduce_tasks = 32;
  return params;
}

// One traced reference run shared by the structural tests: the disk-bound sort
// under both executors, recorded into a single trace (as MONO_TRACE would).
struct TracedRun {
  monosim::JobResult spark;
  monosim::JobResult mono;
  std::vector<monosim::MonotaskRecord> mono_log;  // The mono run's MonotaskLog.
  std::string json;
  std::map<std::string, double> metrics;
  monotrace::TelemetrySnapshot telemetry;
};

const TracedRun& GetTracedRun() {
  static const TracedRun* run = [] {
    auto* r = new TracedRun();
    monotrace::MetricsRegistry::Global().ResetForTest();
    monotrace::ScopedTracer scoped;
    const auto cluster = monoload::SmallHddClusterConfig();
    {
      monosim::SimEnvironment env(cluster);
      env.cluster().EnableTrace();
      monosim::SparkExecutorSim spark(&env.sim(), &env.cluster(), &env.pool(), {});
      env.AttachExecutor(&spark);
      r->spark = env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), DiskBoundSort()));
    }
    {
      monosim::SimEnvironment env(cluster);
      env.cluster().EnableTrace();
      monosim::MonotasksExecutorSim mono(&env.sim(), &env.cluster(), &env.pool(), {});
      env.AttachExecutor(&mono);
      r->mono = env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), DiskBoundSort()));
      r->mono_log = env.monotask_log().records();
    }
    r->json = scoped.tracer().ToJson();
    r->metrics = monotrace::MetricsRegistry::Global().Snapshot();
    r->telemetry = monotrace::MetricsRegistry::Global().TakeTelemetrySnapshot();
    return r;
  }();
  return *run;
}

const ParsedTrace& GetParsedRun() {
  static const ParsedTrace* trace = new ParsedTrace(ParseChromeTrace(GetTracedRun().json));
  return *trace;
}

TEST(TracerTest, RoundTripsSpansCountersAndInstants) {
  monotrace::Tracer tracer;
  const monotrace::TrackRef track = tracer.Track("proc", "row \"1\"\n");
  tracer.BeginSpan(track, "outer", "job", 1.0);
  tracer.BeginSpan(track, "inner", "stage", 1.5, "mono:map");
  tracer.EndSpan(track, 2.0);
  tracer.EndSpan(track, 3.0);
  tracer.CompleteOnLane("proc", "cpu", "first", "cpu", 0.0, 1.0);
  tracer.CompleteOnLane("proc", "cpu", "second", "cpu", 0.5, 1.5);  // Overlaps.
  tracer.Counter("proc", "queue", 0.25, 3.0);
  tracer.Instant("audit", "fluid", "weighted-share", 0.75, "observed 2 expected 1");

  const ParsedTrace trace = ParseChromeTrace(tracer.ToJson());
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  EXPECT_TRUE(trace.timestamps_monotonic);
  ASSERT_EQ(trace.spans.size(), 4u);
  ASSERT_EQ(trace.counters.size(), 1u);
  ASSERT_EQ(trace.instants.size(), 1u);

  // The overlapping lane spans land on distinct rows.
  std::string first_track;
  std::string second_track;
  for (const auto& span : trace.spans) {
    if (span.name == "first") first_track = span.track;
    if (span.name == "second") second_track = span.track;
  }
  EXPECT_EQ(first_track, "cpu#0");
  EXPECT_EQ(second_track, "cpu#1");

  // B/E pairs resolve with their names, stages, and the escaped track name.
  bool found_inner = false;
  for (const auto& span : trace.spans) {
    if (span.name == "inner") {
      found_inner = true;
      EXPECT_EQ(span.stage, "mono:map");
      EXPECT_EQ(span.track, "row \"1\"\n");
      EXPECT_DOUBLE_EQ(span.start, 1.5);
      EXPECT_DOUBLE_EQ(span.end, 2.0);
    }
  }
  EXPECT_TRUE(found_inner);
  EXPECT_DOUBLE_EQ(trace.counters[0].value, 3.0);
  EXPECT_EQ(trace.instants[0].process, "audit");
  EXPECT_EQ(trace.instants[0].detail, "observed 2 expected 1");
}

TEST(TracerTest, UnbalancedSpansAreParseErrors) {
  monotrace::Tracer tracer;
  const monotrace::TrackRef track = tracer.Track("proc", "row");
  tracer.BeginSpan(track, "open-forever", "job", 1.0);
  const ParsedTrace trace = ParseChromeTrace(tracer.ToJson());
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.errors.front().find("unclosed"), std::string::npos);
}

TEST(TracedSortTest, TraceIsWellFormedJson) {
  const ParsedTrace& trace = GetParsedRun();
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  EXPECT_TRUE(trace.timestamps_monotonic);
  EXPECT_GT(trace.spans.size(), 100u);
  EXPECT_GT(trace.counters.size(), 100u);
}

TEST(TracedSortTest, LaneSpansNeverOverlapWithinATrack) {
  const ParsedTrace& trace = GetParsedRun();
  // Lane-allocated rows are named "<base>#<k>"; spans on one row must not
  // overlap (that is the point of the lane allocator).
  std::map<std::pair<std::string, std::string>, std::vector<std::pair<double, double>>>
      by_track;
  for (const auto& span : trace.spans) {
    // Driver tracks hold deliberately-nested job/stage spans; every other
    // '#'-suffixed track is a lane-allocator row.
    if (span.process != "driver" && span.track.find('#') != std::string::npos) {
      by_track[{span.process, span.track}].emplace_back(span.start, span.end);
    }
  }
  EXPECT_GT(by_track.size(), 10u);
  for (auto& [track, intervals] : by_track) {
    std::sort(intervals.begin(), intervals.end());
    for (size_t i = 1; i < intervals.size(); ++i) {
      // Abutting spans may share a lane; JSON stores microseconds to 3 decimal
      // places, so allow the 1 ns of rounding that serialization can introduce.
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 2e-9)
          << "overlap on " << track.first << "/" << track.second;
    }
  }
}

TEST(TracedSortTest, DriverSpansNestStagesInsideJobs) {
  const ParsedTrace& trace = GetParsedRun();
  std::vector<const monomodel::TraceSpan*> jobs;
  std::vector<const monomodel::TraceSpan*> stages;
  for (const auto& span : trace.spans) {
    if (span.process != "driver") {
      continue;
    }
    if (span.category == "job") {
      jobs.push_back(&span);
    } else if (span.category == "stage") {
      stages.push_back(&span);
    }
  }
  ASSERT_EQ(jobs.size(), 2u);    // One job per executor run.
  ASSERT_EQ(stages.size(), 4u);  // Map + reduce, twice.
  for (const auto* stage : stages) {
    bool contained = false;
    for (const auto* job : jobs) {
      contained = contained || (stage->start >= job->start - 1e-9 &&
                                stage->end <= job->end + 1e-9);
    }
    EXPECT_TRUE(contained) << "stage span " << stage->name
                           << " not inside any job span";
  }
}

TEST(TracedSortTest, MonotaskSpanDurationsMatchMonotaskTimes) {
  const ParsedTrace& trace = GetParsedRun();
  const TracedRun& run = GetTracedRun();
  // Per mono stage: span seconds by category must reproduce the executor's
  // MonotaskTimes accounting (same service intervals, independent plumbing).
  for (const auto& stage : run.mono.stages) {
    const std::string label = "mono:" + stage.name;
    double cpu = 0.0;
    double disk = 0.0;
    double network = 0.0;
    for (const auto& span : trace.spans) {
      if (span.stage != label) {
        continue;
      }
      if (span.category == "cpu") {
        cpu += span.end - span.start;
      } else if (span.category == "disk") {
        disk += span.end - span.start;
      } else if (span.category == "network") {
        network += span.end - span.start;
      }
    }
    const auto& times = stage.monotask_times;
    EXPECT_NEAR(cpu, times.compute_seconds, 1e-3) << label;
    EXPECT_NEAR(disk, times.disk_read_seconds + times.disk_write_seconds, 1e-3)
        << label;
    EXPECT_NEAR(network, times.network_seconds, 1e-3) << label;
  }
}

TEST(TracedSortTest, QueueAndDeviceCountersArePresent) {
  const ParsedTrace& trace = GetParsedRun();
  std::set<std::pair<std::string, std::string>> series;
  for (const auto& counter : trace.counters) {
    series.insert({counter.process, counter.series});
  }
  // §3.1 scheduler queues (monotasks executor only).
  EXPECT_TRUE(series.count({"mono:m0", "cpu-queue"}));
  EXPECT_TRUE(series.count({"mono:m0", "disk0-queue"}));
  EXPECT_TRUE(series.count({"mono:m0", "net-queue"}));
  // Device utilization and cache dirty bytes.
  EXPECT_TRUE(series.count({"devices", "machine0.disk0"}));
  EXPECT_TRUE(series.count({"devices", "machine0.cpu"}));
  EXPECT_TRUE(series.count({"devices", "machine0.nic-in"}));
  EXPECT_TRUE(series.count({"os-cache", "machine0.dirty-bytes"}));
  // Both executors report buffered bytes.
  EXPECT_TRUE(series.count({"spark:m0", "buffered-bytes"}));
  EXPECT_TRUE(series.count({"mono:m0", "buffered-bytes"}));
}

TEST(TracedSortTest, ReportBlamesDiskAndAgreesWithModel) {
  const ParsedTrace& trace = GetParsedRun();
  const TracedRun& run = GetTracedRun();
  const TraceReport report = TraceReport::Build(trace);
  ASSERT_EQ(report.stages().size(), 4u);

  const auto* map_stage = report.FindStage("mono:" + run.mono.stages[0].name);
  ASSERT_NE(map_stage, nullptr);
  EXPECT_EQ(map_stage->busiest(), "disk");  // values_per_key=50 => disk-bound.
  EXPECT_FALSE(map_stage->mean_queue.empty());

  const monomodel::MonotasksModel model(
      run.mono, monomodel::HardwareProfile::FromCluster(monoload::SmallHddClusterConfig()));
  int mono_entries = 0;
  for (const auto& entry : report.CrossCheckWithModel(model)) {
    if (entry.stage.rfind("mono:", 0) != 0) {
      continue;
    }
    ++mono_entries;
    EXPECT_TRUE(entry.agree) << entry.stage << ": trace " << entry.trace_verdict
                             << " vs model " << entry.model_verdict;
  }
  EXPECT_EQ(mono_entries, 2);

  // The Spark run's writeback flushes are visible but unattributable (§2.2).
  EXPECT_GT(report.untagged_busy_seconds(), 0.0);
}

TEST(TracedSortTest, MetricsCountCompletedWork) {
  const TracedRun& run = GetTracedRun();
  EXPECT_DOUBLE_EQ(run.metrics.at("spark.tasks_completed"), 64.0);
  EXPECT_DOUBLE_EQ(run.metrics.at("mono.multitasks_completed"), 64.0);
  EXPECT_GT(run.metrics.at("cache.bytes_flushed"), 0.0);
}

// 64-bit FNV-1a over raw bytes; doubles and SimTimes fold in as bit patterns,
// so a one-ulp change to any recorded time moves the hash.
class Fnv1a {
 public:
  void Raw(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  void Int(int64_t value) { Raw(&value, sizeof(value)); }
  void Double(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Raw(&bits, sizeof(bits));
  }
  void Str(const std::string& value) {
    Int(static_cast<int64_t>(value.size()));
    Raw(value.data(), value.size());
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

uint64_t HashBytes(const std::string& bytes) {
  Fnv1a fnv;
  fnv.Raw(bytes.data(), bytes.size());
  return fnv.hash();
}

uint64_t HashLog(const std::vector<monosim::MonotaskRecord>& log) {
  Fnv1a fnv;
  for (const monosim::MonotaskRecord& record : log) {
    fnv.Int(static_cast<int64_t>(record.dispatch_id));
    fnv.Int(record.stage_index);
    fnv.Int(record.machine);
    fnv.Int(static_cast<int64_t>(record.resource));
    fnv.Str(record.phase);
    fnv.Double(record.ready.seconds());
    fnv.Double(record.dispatch.seconds());
    fnv.Double(record.done.seconds());
  }
  return fnv.hash();
}

uint64_t HashMonotaskTimes(const monosim::JobResult& job) {
  Fnv1a fnv;
  for (const auto& stage : job.stages) {
    const monosim::MonotaskTimes& t = stage.monotask_times;
    for (double value :
         {t.compute_seconds, t.compute_deser_seconds, t.compute_decompress_seconds,
          t.disk_read_seconds, t.disk_write_seconds, t.network_seconds,
          t.compute_queue_wait_seconds, t.disk_queue_wait_seconds,
          t.network_acquire_wait_seconds}) {
      fnv.Double(value);
    }
    fnv.Int(t.compute_count);
    fnv.Int(t.disk_count);
    fnv.Int(t.network_count);
    for (double seconds : t.disk_seconds_per_machine) {
      fnv.Double(seconds);
    }
    for (monoutil::Bytes bytes : t.disk_bytes_per_machine) {
      fnv.Int(bytes.count());
    }
  }
  return fnv.hash();
}

// Pins every per-monotask view of the mono run — the Chrome trace, the
// monotask log and each stage's MonotaskTimes — bit for bit. The constants
// were harvested before the executor's completion sites were folded into one
// record; restructuring how those views are derived must not move them. The
// JSON hash alone was re-harvested when the fabric began recording each NIC
// ingress machine once per flush instead of once per solved flow;
// TraceContentMatchesParent shows the dropped samples were exact repeats.
TEST(TracedSortTest, ObservabilityMatchesParent) {
  const TracedRun& run = GetTracedRun();
  std::set<std::string> phases;
  for (const monosim::MonotaskRecord& record : run.mono_log) {
    phases.insert(record.phase);
  }
  EXPECT_EQ(phases, (std::set<std::string>{"disk-read", "serve-read", "block-flow",
                                           "shuffle-read", "shuffle-fetch", "compute",
                                           "disk-write"}));
  EXPECT_EQ(HashBytes(run.json), 0xf8ab09c097b90a8dULL);
  EXPECT_EQ(HashLog(run.mono_log), 0x213ed3c89fdf1a03ULL);
  EXPECT_EQ(HashMonotaskTimes(run.mono), 0x9708cb7149af530eULL);
}

// FNV-1a over every field ParseChromeTrace reads back. With `skip_repeats`, a
// counter sample whose (ts, value) equals the last kept sample of its
// (process, series) is left out, and `kept_counters` (if given) counts the rest.
uint64_t HashParsedTrace(const ParsedTrace& trace, bool skip_repeats = false,
                         size_t* kept_counters = nullptr) {
  Fnv1a fnv;
  for (const monomodel::TraceSpan& span : trace.spans) {
    fnv.Str(span.process);
    fnv.Str(span.track);
    fnv.Str(span.name);
    fnv.Str(span.category);
    fnv.Str(span.stage);
    fnv.Double(span.start);
    fnv.Double(span.end);
  }
  std::map<std::pair<std::string, std::string>, std::pair<double, double>> last;
  size_t kept = 0;
  for (const monomodel::TraceCounterSample& sample : trace.counters) {
    if (skip_repeats) {
      const auto [it, inserted] =
          last.try_emplace({sample.process, sample.series}, sample.ts, sample.value);
      if (!inserted) {
        if (it->second == std::make_pair(sample.ts, sample.value)) {
          continue;
        }
        it->second = {sample.ts, sample.value};
      }
    }
    ++kept;
    fnv.Str(sample.process);
    fnv.Str(sample.series);
    fnv.Double(sample.ts);
    fnv.Double(sample.value);
  }
  for (const monomodel::TraceInstant& instant : trace.instants) {
    fnv.Str(instant.process);
    fnv.Str(instant.track);
    fnv.Str(instant.name);
    fnv.Str(instant.detail);
    fnv.Double(instant.ts);
  }
  if (kept_counters != nullptr) {
    *kept_counters = kept;
  }
  return fnv.hash();
}

// Pins everything ParseChromeTrace reads back from the mono and Spark runs'
// trace, bit for bit. The constants were harvested from the tree-building
// parser; the streaming reader that replaced it must not move them. The
// counter count and the hash were re-harvested when the fabric began
// recording each NIC ingress machine once per flush.
TEST(TracedSortTest, ParsedTraceMatchesParent) {
  const ParsedTrace& trace = GetParsedRun();
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  EXPECT_TRUE(trace.timestamps_monotonic);
  EXPECT_EQ(trace.spans.size(), 12303u);
  EXPECT_EQ(trace.counters.size(), 30204u);
  EXPECT_EQ(trace.instants.size(), 0u);
  EXPECT_EQ(HashParsedTrace(trace), 0xe00d00917b41a5f8ULL);
}

// Pins the trace's content up to exact repeats: a counter sample that repeats
// the last sample of its series (same ts, same value) carries nothing, so it is
// skipped. The constants were harvested while the fabric still recorded one NIC
// ingress sample per solved flow; recording each machine once per flush must
// not move them, which shows only exact repeats were dropped.
TEST(TracedSortTest, TraceContentMatchesParent) {
  const ParsedTrace& trace = GetParsedRun();
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  size_t kept_counters = 0;
  const uint64_t hash = HashParsedTrace(trace, /*skip_repeats=*/true, &kept_counters);
  EXPECT_EQ(kept_counters, 29896u);
  EXPECT_EQ(hash, 0x0a2d90f59e06aa21ULL);
}

// Every view is derived from the same completion, so they must count the same
// monotasks: a completion site that skipped one view shows up here.
TEST(TracedSortTest, MonotaskLogAgreesWithStageCountsAndHistograms) {
  const TracedRun& run = GetTracedRun();
  std::map<int, std::array<int, 3>> by_stage;  // stage -> records per resource.
  std::array<uint64_t, 3> total{};
  for (const monosim::MonotaskRecord& record : run.mono_log) {
    const auto resource = static_cast<size_t>(record.resource);
    ++by_stage[record.stage_index][resource];
    ++total[resource];
  }
  ASSERT_EQ(by_stage.size(), run.mono.stages.size());
  for (const auto& stage : run.mono.stages) {
    const std::array<int, 3>& counts = by_stage[stage.stage_index];
    const monosim::MonotaskTimes& times = stage.monotask_times;
    EXPECT_EQ(counts[static_cast<size_t>(monosim::MonoResource::kCpu)],
              times.compute_count) << stage.name;
    EXPECT_EQ(counts[static_cast<size_t>(monosim::MonoResource::kDisk)],
              times.disk_count) << stage.name;
    EXPECT_EQ(counts[static_cast<size_t>(monosim::MonoResource::kNetwork)],
              times.network_count) << stage.name;
  }
  const auto& histograms = run.telemetry.histograms;
  EXPECT_EQ(histograms.at("mono.cpu.service_seconds").count,
            total[static_cast<size_t>(monosim::MonoResource::kCpu)]);
  EXPECT_EQ(histograms.at("mono.disk.service_seconds").count,
            total[static_cast<size_t>(monosim::MonoResource::kDisk)]);
}

TEST(TracedSortTest, UtilizationMeasuredFlagTracksClusterTrace) {
  const TracedRun& run = GetTracedRun();
  EXPECT_TRUE(run.spark.stages[0].utilization.measured);
  EXPECT_TRUE(run.mono.stages[0].utilization.measured);

  // Without EnableTrace the utilization columns are all zero *because nothing
  // measured them* — and the flag now says so.
  monosim::SimEnvironment env(monoload::SmallHddClusterConfig());
  monosim::SparkExecutorSim spark(&env.sim(), &env.cluster(), &env.pool(), {});
  env.AttachExecutor(&spark);
  monoload::SortParams params = DiskBoundSort();
  params.total_bytes = GiB(1);
  params.num_map_tasks = 8;
  params.num_reduce_tasks = 8;
  const auto result = env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), params));
  EXPECT_FALSE(result.stages[0].utilization.measured);
}

TEST(TracingTest, AuditViolationsBecomeInstants) {
  monotrace::ScopedTracer scoped;
  monosim::ScopedAudit audit(monosim::ScopedAudit::kReport);
  audit.audit().Report(monoutil::Seconds(1.5), "fluid:disk0", "weighted-share", "observed 2 expected 1");
  const ParsedTrace trace = ParseChromeTrace(scoped.tracer().ToJson());
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace.instants.size(), 1u);
  EXPECT_EQ(trace.instants[0].process, "audit");
  EXPECT_EQ(trace.instants[0].track, "fluid:disk0");
  EXPECT_EQ(trace.instants[0].name, "weighted-share");

  const TraceReport report = TraceReport::Build(trace);
  ASSERT_EQ(report.audit_violations().size(), 1u);
}

#if MONO_TEST_ALLOC_HOOKS
TEST(TracingTest, DisabledTracerHookSitesDoNotAllocate) {
  ASSERT_EQ(monotrace::Tracer::current(), nullptr)
      << "unset MONO_TRACE when running the test suite";
  monosim::SimEnvironment env(monoload::SmallHddClusterConfig());
  monosim::MonotasksExecutorSim mono(&env.sim(), &env.cluster(), &env.pool(), {});
  env.AttachExecutor(&mono);

  const long before = monotest::AllocationCount().load();
  for (int i = 0; i < 1000; ++i) {
    // Instrumented hot paths: with no tracer installed each hook is one
    // relaxed atomic load and a branch.
    mono.AddBuffered(0, monoutil::Bytes(64));
    mono.RemoveBuffered(0, monoutil::Bytes(64));
  }
  EXPECT_EQ(monotest::AllocationCount().load() - before, 0);
}
#endif  // MONO_TEST_ALLOC_HOOKS

}  // namespace
