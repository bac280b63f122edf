// mono_stat: the always-on telemetry station.
//
// Everything printed here comes from instrumentation that is on in every run —
// the MetricsRegistry aggregates (counters and log-bucketed latency histograms)
// and the bounded MonotaskLog — with zero configuration: no MONO_TRACE, no
// rebuild, no sampling window to arm. This is the paper's performance-clarity
// claim made concrete: after any run you can ask "where did the time go?" and
// get per-stage, per-resource blame with queue-wait separated from service.
//
// The tool runs the §5.2 sort (scaled down) under the monotasks executor and
// prints:
//   1. the critical-path report derived from the MonotaskLog — per-stage
//      blame splitting wall clock into per-resource critical seconds,
//      scheduler-gap blocked time, and idle time;
//   2. a cross-check of that log-derived blame against the opt-in Chrome-trace
//      pipeline (the two must agree: both measure the same service intervals);
//   3. the process TelemetrySnapshot as JSON — the same schema benches embed
//      in BENCH_*.json and MONO_TELEMETRY=<path> writes at exit.
//
// Run:  ./mono_stat [--json]     (--json: print only the TelemetrySnapshot,
//                                 for piping into jq or a dashboard)
#include <cstdio>
#include <map>
#include <string>

#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/tracer.h"
#include "src/framework/environment.h"
#include "src/model/critical_path.h"
#include "src/model/trace_report.h"
#include "src/monotask/mono_executor.h"
#include "src/workloads/clusters.h"
#include "src/workloads/sort.h"

int main(int argc, char** argv) {
  const bool json_only =
      argc > 1 && std::string(argv[1]) == "--json";

  // A balanced sort (20 values/key, §5.2) scaled to 10 GiB so the example runs
  // in a blink; the instrumentation exercised is identical at any size.
  monoload::SortParams params;
  params.total_bytes = monoutil::GiB(10);

  // The tracer is opt-in and exists here only to cross-check the always-on
  // path; everything else below would work the same without it.
  monotrace::ScopedTracer scoped;

  monosim::SimEnvironment env(monoload::SortClusterConfig());
  env.cluster().EnableTrace();
  monosim::MonotasksExecutorSim executor(&env.sim(), &env.cluster(), &env.pool(), {});
  env.AttachExecutor(&executor);
  const monosim::JobResult result =
      env.driver().RunJob(monoload::MakeSortJob(&env.dfs(), params));

  if (json_only) {
    std::fputs(monotrace::MetricsRegistry::Global().TakeTelemetrySnapshot().ToJson().c_str(),
               stdout);
    std::fputc('\n', stdout);
    return 0;
  }

  std::printf("sort(%d GiB, %d values/key) on 20 workers x 2 HDD: %.1f s, digest %016llx\n\n",
              static_cast<int>(params.total_bytes / monoutil::GiB(1)), params.values_per_key,
              result.duration().seconds(), static_cast<unsigned long long>(result.sim_digest));

  // 1. Critical-path blame from the always-on MonotaskLog.
  const monomodel::CriticalPathReport report =
      monomodel::CriticalPathReport::Build(env.monotask_log());
  std::fputs(report.ToString().c_str(), stdout);

  // 2. Cross-check the log-derived busy seconds against the trace pipeline.
  const monomodel::ParsedTrace trace =
      monomodel::ParseChromeTrace(scoped.tracer().ToJson());
  for (const std::string& error : trace.errors) {
    std::fprintf(stderr, "trace problem: %s\n", error.c_str());
  }
  const monomodel::TraceReport trace_report = monomodel::TraceReport::Build(trace);
  std::map<int, std::string> stage_labels;
  for (const monosim::StageResult& stage : result.stages) {
    stage_labels[stage.stage_index] = std::string(executor.trace_name()) + ":" + stage.name;
  }
  std::puts("\nlog-vs-trace cross-check (per-stage busy seconds, tolerance 5%):");
  bool all_agree = true;
  for (const monomodel::CriticalPathCrossCheck& check :
       report.CrossCheckWithTrace(trace_report, stage_labels)) {
    std::printf("  %-20s %-8s log %8.2f s  trace %8.2f s  err %5.1f%%  %s\n",
                check.stage.c_str(), check.resource.c_str(), check.log_busy_seconds,
                check.trace_busy_seconds, 100.0 * check.relative_error,
                check.agree ? "agree" : "DISAGREE");
    all_agree = all_agree && check.agree;
  }

  // 3. The process-wide TelemetrySnapshot: queue-wait and service histograms
  // from the executors and the completion and flush counters.
  std::puts("\ntelemetry snapshot (same schema as BENCH_*.json and MONO_TELEMETRY):");
  std::fputs(monotrace::MetricsRegistry::Global().TakeTelemetrySnapshot().ToJson().c_str(),
             stdout);
  std::fputc('\n', stdout);

  // The cross-check doubles as this example's self-test: both pipelines
  // measure the same [dispatch, done] intervals, so disagreement means one of
  // them lost or double-counted work.
  return all_agree ? 0 : 1;
}
