// Trace doctor: bottleneck diagnosis from the event trace alone.
//
// The bottleneck_doctor example diagnoses from the executors' in-memory
// metrics. This one goes through the observability subsystem instead: run the
// job with a Tracer installed, serialize the trace to Chrome Trace Event JSON,
// parse it back, and derive per-stage resource blame purely from the spans —
// the workflow an engineer has when all they were handed is a trace file.
// The trace verdict is then cross-checked against the §6 model's ideal-time
// bottleneck computed from the same run's aggregate metrics: when the two
// independent paths agree, the trace is telling the truth.
//
// Run:  ./trace_doctor               self-run a disk-bound sort and diagnose it
//                                    (with MONO_TRACE=<path> set, the self-run's
//                                    trace is also written there)
//       ./trace_doctor out.json      diagnose an existing MONO_TRACE file
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/tracing/tracer.h"
#include "src/framework/environment.h"
#include "src/model/monotasks_model.h"
#include "src/model/trace_report.h"
#include "src/monotask/mono_executor.h"
#include "src/multitask/spark_executor.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"

namespace {

int ReportFromFile(const char* path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::ostringstream content;
  content << file.rdbuf();
  const monomodel::ParsedTrace trace = monomodel::ParseChromeTrace(content.str());
  for (const std::string& error : trace.errors) {
    std::fprintf(stderr, "trace problem: %s\n", error.c_str());
  }
  if (!trace.ok()) {
    return 1;
  }
  std::printf("%zu spans, %zu counter samples, %zu instants\n\n", trace.spans.size(),
              trace.counters.size(), trace.instants.size());
  std::fputs(monomodel::TraceReport::Build(trace).ToString().c_str(), stdout);
  return 0;
}

monoload::SortParams DiskBoundSort() {
  monoload::SortParams params;
  params.total_bytes = monoutil::GiB(16);
  params.values_per_key = 50;  // Disk-bound on 2-HDD workers (§5.2's knob).
  params.num_map_tasks = 64;
  params.num_reduce_tasks = 64;
  return params;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    return ReportFromFile(argv[1]);
  }

  const auto cluster = monoload::SmallHddClusterConfig();
  std::puts("Self-run: disk-bound sort (16 GiB, 50 values/key) on 5 workers x 2 HDD,");
  std::puts("traced under both architectures, diagnosed from the trace alone.\n");

  monotrace::ScopedTracer scoped;

  // Spark baseline. Without EnableTrace() the device-utilization columns of the
  // stage metrics stay unmeasured — the report below points that out.
  monosim::SimEnvironment spark_env(cluster);
  monosim::SparkExecutorSim spark(&spark_env.sim(), &spark_env.cluster(),
                                  &spark_env.pool(), {});
  spark_env.AttachExecutor(&spark);
  const auto spark_result =
      spark_env.driver().RunJob(monoload::MakeSortJob(&spark_env.dfs(), DiskBoundSort()));

  // Monotasks run.
  monosim::SimEnvironment mono_env(cluster);
  mono_env.cluster().EnableTrace();
  monosim::MonotasksExecutorSim mono(&mono_env.sim(), &mono_env.cluster(),
                                     &mono_env.pool(), {});
  mono_env.AttachExecutor(&mono);
  const auto mono_result =
      mono_env.driver().RunJob(monoload::MakeSortJob(&mono_env.dfs(), DiskBoundSort()));

  std::printf("Runtime: Spark %.1f s, MonoSpark %.1f s\n", spark_result.duration().seconds(),
              mono_result.duration().seconds());
  std::printf("Spark stage utilization measured: %s;  monotasks run: %s\n\n",
              spark_result.stages[0].utilization.measured ? "yes" : "no (trace off)",
              mono_result.stages[0].utilization.measured ? "yes" : "no (trace off)");

  if (monotrace::TraceRequestedByEnv() &&
      !scoped.tracer().WriteFile(std::getenv("MONO_TRACE"))) {
    return 1;
  }

  // Round-trip through the JSON, exactly as an offline consumer would.
  const monomodel::ParsedTrace trace =
      monomodel::ParseChromeTrace(scoped.tracer().ToJson());
  for (const std::string& error : trace.errors) {
    std::fprintf(stderr, "trace problem: %s\n", error.c_str());
  }
  if (!trace.ok()) {
    return 1;
  }
  const monomodel::TraceReport report = monomodel::TraceReport::Build(trace);
  std::fputs(report.ToString().c_str(), stdout);

  // Cross-check: the trace's per-stage verdict vs the §6 ideal-time model.
  const monomodel::MonotasksModel model(
      mono_result, monomodel::HardwareProfile::FromCluster(cluster));
  // The model was built from the monotasks run, so only mono-labelled stages
  // are held to agreement; the Spark rows show what its span mix looks like.
  std::puts("\nCross-check against the Sec.6 model:");
  bool mono_agree = true;
  for (const auto& entry : report.CrossCheckWithModel(model)) {
    const bool is_mono = entry.stage.rfind("mono:", 0) == 0;
    std::printf("  %-22s trace says %-8s model says %-8s %s\n", entry.stage.c_str(),
                entry.trace_verdict.c_str(), entry.model_verdict.c_str(),
                entry.agree ? "AGREE" : (is_mono ? "DISAGREE" : "(informational)"));
    if (is_mono) {
      mono_agree = mono_agree && entry.agree;
    }
  }
  if (!mono_agree) {
    std::puts("  (disagreement: the trace and the model blame different resources)");
    return 1;
  }
  return 0;
}
