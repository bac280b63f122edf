// Trace-driven bottleneck reporting (§6 of the paper, driven from the event
// trace instead of the per-stage aggregate counters).
//
// The tracer (src/common/tracing/tracer.h) writes Chrome Trace Event Format
// JSON. This module reads that JSON back (ParseChromeTrace — a streaming reader
// that builds no document tree and keeps only the event fields below; it is
// strict JSON, so tests also use it to check well-formedness, and it reads
// traces from other writers such as Perfetto) and aggregates the spans into
// per-stage, per-resource *blame*:
//
//   busy_seconds   — sum of span durations on the resource, attributed to the
//                    stage by the span's `stage` argument;
//   lanes          — concurrent rows the work occupied (≈ devices/cores used);
//   utilization    — busy / (lanes × stage duration).
//
// The stage's busiest resource by utilization is the trace's bottleneck
// verdict; CrossCheckWithModel compares it against the §6 model's ideal-time
// bottleneck computed from the same run's aggregate metrics. Work that carries
// no stage tag (buffer-cache flushes) is reported separately — it is exactly
// the unattributable time §2.2 blames for today's frameworks' opacity.
#ifndef MONOTASKS_SRC_MODEL_TRACE_REPORT_H_
#define MONOTASKS_SRC_MODEL_TRACE_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "src/model/monotasks_model.h"

namespace monomodel {

// One finished interval from the trace ('X' events, and 'B'/'E' pairs matched
// back into intervals).
struct TraceSpan {
  std::string process;
  std::string track;  // Resolved row name ("cpu#0", "slot#3", ...).
  std::string name;
  std::string category;
  std::string stage;  // Stage-attribution argument; empty = unattributed work.
  double start = 0.0;  // Seconds.
  double end = 0.0;
};

struct TraceCounterSample {
  std::string process;
  std::string series;
  double ts = 0.0;
  double value = 0.0;
};

struct TraceInstant {
  std::string process;
  std::string track;
  std::string name;
  std::string detail;
  double ts = 0.0;
};

struct ParsedTrace {
  std::vector<TraceSpan> spans;
  std::vector<TraceCounterSample> counters;
  std::vector<TraceInstant> instants;
  // Event timestamps appeared in nondecreasing order in the file (the tracer
  // sorts on serialization; tests assert this survives a round trip).
  bool timestamps_monotonic = true;
  // Parse/structure problems: malformed JSON, an 'E' without a 'B', a 'B'
  // never closed, ... Empty means the trace is well-formed.
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }
};

// Parses Chrome Trace Event Format JSON as produced by Tracer::ToJson(). Keys
// other than ph/pid/tid/ts/dur/name/cat and args.{name,stage,value,detail} are
// checked and skipped; the first of duplicate keys wins and a field of the
// wrong type takes its default. Malformed JSON anywhere yields that one error.
ParsedTrace ParseChromeTrace(const std::string& json);

// Aggregate blame for one resource category within one stage.
struct ResourceBlame {
  double busy_seconds = 0.0;
  int span_count = 0;
  int lanes = 0;           // Distinct (process, track) rows the spans occupied.
  double utilization = 0.0;  // busy_seconds / (lanes * stage duration).
};

struct StageTraceSummary {
  std::string label;  // "mono:sort-map" — executor-qualified stage name.
  std::string name;   // "sort-map" — the StageSpec name.
  double start = 0.0;
  double end = 0.0;
  // Blame by span category: "cpu", "disk", "network", "cache".
  std::map<std::string, ResourceBlame> blame;
  // Time-weighted mean queue length per scheduler series ("cpu-queue",
  // "disk0-queue", "net-queue"), averaged across machines. Only populated for
  // monotasks stages — the §3.1 contention signal the baseline cannot emit.
  std::map<std::string, double> mean_queue;

  // Trace-ingestion boundary: start/end are parsed from monotrace JSON,
  // which is raw seconds by design.
  // mono_lint: allow(raw-unit-double) -- parsed straight from monotrace JSON.
  double duration() const { return end > start ? end - start : 0.0; }
  // The resource category ("cpu"/"disk"/"network") with the highest
  // utilization; empty when the stage recorded no resource spans.
  std::string busiest() const;
};

struct CrossCheckEntry {
  std::string stage;          // Executor-qualified stage label ("mono:sort-map").
  std::string trace_verdict;  // Busiest resource per the trace.
  std::string model_verdict;  // Bottleneck per the §6 ideal-time model.
  bool agree = false;
};

class TraceReport {
 public:
  // Builds the report from a parsed trace. Stage windows come from the
  // driver's category-"stage" spans; resource spans attach by stage label.
  static TraceReport Build(const ParsedTrace& trace);

  const std::vector<StageTraceSummary>& stages() const { return stages_; }
  const StageTraceSummary* FindStage(const std::string& label) const;

  // Busy seconds carrying no stage tag (buffer-cache writeback): work the
  // framework never issued and a per-task view cannot attribute (§2.2).
  double untagged_busy_seconds() const { return untagged_busy_seconds_; }
  const std::vector<TraceInstant>& audit_violations() const {
    return audit_violations_;
  }

  // Compares each stage's trace verdict against the model's ideal-time
  // bottleneck. Trace stage labels are matched to model stages by StageSpec
  // name; stages only one side knows about are skipped.
  std::vector<CrossCheckEntry> CrossCheckWithModel(const MonotasksModel& model) const;

  std::string ToString() const;

 private:
  std::vector<StageTraceSummary> stages_;
  double untagged_busy_seconds_ = 0.0;
  std::vector<TraceInstant> audit_violations_;
};

}  // namespace monomodel

#endif  // MONOTASKS_SRC_MODEL_TRACE_REPORT_H_
