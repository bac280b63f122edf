// Bottleneck doctor: diagnose a slow analytics job the monotasks way.
//
// Runs a Big Data Benchmark query under both architectures with the event
// tracer installed and produces the kind of report the paper argues should be
// trivial: per-stage bottlenecks with per-resource blame from the trace, the
// §3.1 queue-length contention signal, and what each architecture lets you
// see. The Spark run can only offer aggregate device counters; the monotasks
// run has per-monotask spans and scheduler queues, so the doctor can say *why*
// the stage took as long as it did and what would fix it.
//
// Run:  ./bottleneck_doctor [query]   (query in {1a,1b,1c,2a,2b,2c,3a,3b,3c,4};
//                                      default 2c)
#include <cstdio>
#include <string>

#include "src/common/tracing/tracer.h"
#include "src/framework/environment.h"
#include "src/model/monotasks_model.h"
#include "src/model/trace_report.h"
#include "src/monotask/mono_executor.h"
#include "src/multitask/spark_executor.h"
#include "src/workloads/bdb.h"

namespace {

monoload::BdbQuery ParseQuery(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "2c";
  for (monoload::BdbQuery query : monoload::AllBdbQueries()) {
    if (monoload::BdbQueryName(query) == name) {
      return query;
    }
  }
  std::fprintf(stderr, "unknown query '%s', using 2c\n", name.c_str());
  return monoload::BdbQuery::k2c;
}

double MeanUtil(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) {
    total += v;
  }
  return values.empty() ? 0.0 : total / static_cast<double>(values.size());
}

}  // namespace

int main(int argc, char** argv) {
  const monoload::BdbQuery query = ParseQuery(argc, argv);
  const auto cluster = monoload::BdbClusterConfig();
  std::printf("Diagnosing BDB query %s on 5 workers x 2 HDD...\n\n",
              monoload::BdbQueryName(query).c_str());

  // Both runs record into one trace; the report below is derived from it.
  monotrace::ScopedTracer scoped;

  // Run under Spark (the before picture).
  monosim::SimEnvironment spark_env(cluster);
  spark_env.cluster().EnableTrace();
  monosim::SparkExecutorSim spark(&spark_env.sim(), &spark_env.cluster(),
                                  &spark_env.pool(), {});
  spark_env.AttachExecutor(&spark);
  const auto spark_result =
      spark_env.driver().RunJob(monoload::MakeBdbQueryJob(&spark_env.dfs(), query));

  // Run under monotasks (the after picture).
  monosim::SimEnvironment mono_env(cluster);
  mono_env.cluster().EnableTrace();
  monosim::MonotasksExecutorSim mono(&mono_env.sim(), &mono_env.cluster(),
                                     &mono_env.pool(), {});
  mono_env.AttachExecutor(&mono);
  const auto mono_result =
      mono_env.driver().RunJob(monoload::MakeBdbQueryJob(&mono_env.dfs(), query));

  std::printf("Runtime: Spark %.1f s, MonoSpark %.1f s\n\n", spark_result.duration().seconds(),
              mono_result.duration().seconds());

  std::puts("What Spark can tell you (aggregate device counters per stage):");
  for (const auto& stage : spark_result.stages) {
    std::printf("  %-16s %6.1f s   cpu util %4.0f%%  disk util %4.0f%%  net util %4.0f%%\n",
                stage.name.c_str(), stage.duration().seconds(),
                100 * MeanUtil(stage.utilization.cpu),
                100 * MeanUtil(stage.utilization.disk),
                100 * MeanUtil(stage.utilization.network));
  }
  std::puts("  ...but which of that device time belongs to which work, and what would");
  std::puts("  change under new hardware, is guesswork (Figs 15-17).\n");

  // The trace report: per-stage resource blame from the recorded spans, and
  // the §3.1 signal — contention visible directly as scheduler queue length.
  const monomodel::ParsedTrace trace =
      monomodel::ParseChromeTrace(scoped.tracer().ToJson());
  for (const std::string& error : trace.errors) {
    std::fprintf(stderr, "trace problem: %s\n", error.c_str());
  }
  const monomodel::TraceReport report = monomodel::TraceReport::Build(trace);

  std::puts("What monotasks tells you (per-monotask spans, from the trace):");
  for (const auto& stage : report.stages()) {
    if (stage.label.rfind("mono:", 0) != 0 || stage.blame.empty()) {
      continue;
    }
    std::printf("  %-22s %6.1f s\n", stage.label.c_str(), stage.duration());
    for (const auto& [category, blame] : stage.blame) {
      std::printf("      %-8s busy %7.1f s over %2d lane(s), utilization %3.0f%%\n",
                  category.c_str(), blame.busy_seconds, blame.lanes,
                  100.0 * blame.utilization);
    }
    for (const auto& [series, mean] : stage.mean_queue) {
      std::printf("      queue %-12s mean length %.1f  (Sec 3.1: contention, "
                  "directly)\n",
                  series.c_str(), mean);
    }
    std::printf("      => busiest resource: %s\n", stage.busiest().c_str());
  }
  if (report.untagged_busy_seconds() > 0.0) {
    std::printf("  (plus %.1f s of device time with no stage tag — OS writeback the\n"
                "   Spark run cannot attribute; Sec 2.2)\n",
                report.untagged_busy_seconds());
  }

  std::puts("\nPrescription (Sec 6 model, cross-checked against the trace):");
  const monomodel::MonotasksModel model(
      mono_result, monomodel::HardwareProfile::FromCluster(cluster));
  for (const auto& entry : report.CrossCheckWithModel(model)) {
    if (entry.stage.rfind("mono:", 0) != 0) {
      continue;
    }
    std::printf("  %-22s trace: %-8s model: %-8s %s\n", entry.stage.c_str(),
                entry.trace_verdict.c_str(), entry.model_verdict.c_str(),
                entry.agree ? "agree" : "DISAGREE");
  }
  const auto bottleneck = model.JobBottleneck();
  std::printf("  The job is %s-bound. Best case from optimizing it: %.1f s "
              "(currently %.1f s).\n",
              monomodel::ResourceName(bottleneck),
              model.PredictWithInfinitelyFast(bottleneck), mono_result.duration().seconds());
  std::printf("  Removing one disk per machine would give %.1f s; adding two more, "
              "%.1f s.\n",
              model.PredictJobSeconds(model.baseline().WithDisksPerMachine(1)),
              model.PredictJobSeconds(model.baseline().WithDisksPerMachine(4)));
  return 0;
}
