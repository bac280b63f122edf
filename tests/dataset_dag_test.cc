// Pins the monotask DAG the driver builds for each kind of stage input and output.
//
// Every monotask a worker completes becomes one trace span named by its label, so
// the sorted (process, category, name) spans of a job are the DAG it ran: which
// monotasks each multitask decomposed into, on which resource, on which worker.
// The config fits every stage's tasks under the §3.4 limit at the initial fill,
// so task placement — and with it the span set — is deterministic.
#include <map>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/dataset.h"
#include "src/common/tracing/tracer.h"
#include "src/model/trace_report.h"

namespace monotasks {
namespace {

using Record = std::pair<int64_t, int64_t>;

// "process category name" -> count over every span in the trace. Source names
// carry a process-global counter, so their numbers are normalised away.
std::map<std::string, int> SpanCounts(const monotrace::Tracer& tracer) {
  const monomodel::ParsedTrace trace = monomodel::ParseChromeTrace(tracer.ToJson());
  EXPECT_TRUE(trace.ok());
  const std::regex source_number(R"(\b(parallelize|cache)\.\d+)");
  std::map<std::string, int> counts;
  for (const monomodel::TraceSpan& span : trace.spans) {
    const std::string name = std::regex_replace(span.name, source_number, "$1.N");
    ++counts[span.process + " " + span.category + " " + name];
  }
  return counts;
}

std::vector<Record> Records(int64_t count, int64_t keys) {
  std::vector<Record> records;
  for (int64_t i = 0; i < count; ++i) {
    records.emplace_back(i % keys, i);
  }
  return records;
}

TEST(DatasetDagTest, MonotaskSpansArePinned) {
  EngineConfig config;
  config.num_workers = 2;
  config.cores_per_worker = 2;
  config.disks_per_worker = 2;
  config.time_scale = 2000.0;
  const auto add = [](const int64_t& a, const int64_t& b) { return a + b; };

  monotrace::ScopedTracer scoped;
  {
    MonoClient client(config);
    // Disk source into a shuffle.
    ReduceByKey<int64_t, int64_t>(client.Parallelize<Record>(Records(200, 10), 4), add, 4)
        .Collect();
    // Cached source (Cache itself collects from a disk source).
    client.Parallelize<Record>(Records(100, 5), 4)
        .Cache()
        .Map<Record>([](const Record& r) { return Record{r.first, r.second + 1}; })
        .Collect();
    // Two-parent shuffle.
    Join<int64_t, int64_t, int64_t>(client.Parallelize<Record>(Records(40, 8), 4),
                                    client.Parallelize<Record>(Records(40, 8), 4), 4)
        .Collect();
    // Save, then read the saved source back.
    client.Parallelize<int64_t>({1, 2, 3, 4, 5, 6, 7, 8}, 4)
        .Map<int64_t>([](const int64_t& x) { return x * 2; })
        .Save("doubled");
    client.FromSource<int64_t>("doubled", 4).Collect();
  }

  const std::map<std::string, int> expected = {
      {"worker0 cpu collect", 10},
      {"worker0 cpu stage0.compute", 2},
      {"worker0 cpu stage1.compute", 2},
      {"worker0 cpu stage2.compute", 2},
      {"worker0 cpu stage3.compute", 2},
      {"worker0 cpu stage4.compute", 2},
      {"worker0 cpu stage5.compute", 2},
      {"worker0 cpu stage6.compute", 2},
      {"worker0 cpu stage7.compute", 2},
      {"worker0 cpu stage8.compute", 2},
      {"worker0 disk read:doubled.0", 1},
      {"worker0 disk read:doubled.2", 1},
      {"worker0 disk read:parallelize.N.0", 5},
      {"worker0 disk read:parallelize.N.2", 5},
      {"worker0 disk shuffle-read-local", 8},
      {"worker0 disk shuffle-serve", 12},
      {"worker0 disk write:doubled.0", 1},
      {"worker0 disk write:doubled.2", 1},
      {"worker0 disk write:shuffle.stage0.0", 1},
      {"worker0 disk write:shuffle.stage0.2", 1},
      {"worker0 disk write:shuffle.stage4.0", 1},
      {"worker0 disk write:shuffle.stage4.2", 1},
      {"worker0 disk write:shuffle.stage6.0", 1},
      {"worker0 disk write:shuffle.stage6.2", 1},
      {"worker0 network shuffle-fetch", 4},
      {"worker1 cpu collect", 10},
      {"worker1 cpu stage0.compute", 2},
      {"worker1 cpu stage1.compute", 2},
      {"worker1 cpu stage2.compute", 2},
      {"worker1 cpu stage3.compute", 2},
      {"worker1 cpu stage4.compute", 2},
      {"worker1 cpu stage5.compute", 2},
      {"worker1 cpu stage6.compute", 2},
      {"worker1 cpu stage7.compute", 2},
      {"worker1 cpu stage8.compute", 2},
      {"worker1 disk read:doubled.1", 1},
      {"worker1 disk read:doubled.3", 1},
      {"worker1 disk read:parallelize.N.1", 5},
      {"worker1 disk read:parallelize.N.3", 5},
      {"worker1 disk shuffle-read-local", 8},
      {"worker1 disk shuffle-serve", 12},
      {"worker1 disk write:doubled.1", 1},
      {"worker1 disk write:doubled.3", 1},
      {"worker1 disk write:shuffle.stage0.1", 1},
      {"worker1 disk write:shuffle.stage0.3", 1},
      {"worker1 disk write:shuffle.stage4.1", 1},
      {"worker1 disk write:shuffle.stage4.3", 1},
      {"worker1 disk write:shuffle.stage6.1", 1},
      {"worker1 disk write:shuffle.stage6.3", 1},
      {"worker1 network shuffle-fetch", 4},
  };
  EXPECT_EQ(SpanCounts(scoped.tracer()), expected);
}

}  // namespace
}  // namespace monotasks
