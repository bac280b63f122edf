// Tracer: a low-overhead span/counter recorder emitting Chrome Trace Event
// Format JSON (loadable in chrome://tracing or https://ui.perfetto.dev).
//
// The tracer mirrors the SimAudit gating pattern (src/simcore/audit.h): hook
// sites do
//
//   if (monotrace::Tracer* tr = monotrace::Tracer::current()) { tr->...; }
//
// so instrumented code pays one branch (an atomic load) per hook when tracing
// is off — no allocation, no lock. Tests and examples install a tracer with
// `ScopedTracer`; benches opt in by setting MONO_TRACE=<path> (see
// InstallEnvTracerOnce), which accumulates every simulation run in the process
// into one trace file written at exit.
//
// Model. A trace is a forest of *processes* (Perfetto top-level groups), each
// holding *tracks* (rows). Three event kinds land on tracks:
//
//   * spans    — named time intervals. Strictly-nested callers use
//                BeginSpan/EndSpan ('B'/'E' events); concurrent work uses
//                CompleteOnLane, which records a finished interval ('X' event)
//                and automatically parks it on the first free lane of a lane
//                group ("cpu#0", "cpu#1", ...) so overlapping spans never
//                share a row. Lane allocation requires end-time-ordered
//                emission, which retroactive instrumentation (record when the
//                work finishes) gives for free.
//   * counters — named step functions ('C' events): queue lengths, device
//                utilization, dirty bytes.
//   * instants — point markers ('i' events): audit violations.
//
// Spans carry an optional `stage` argument naming the stage execution that
// issued the work ("mono:map"); the trace report (src/model/trace_report.h)
// groups resource blame by it. Work with no stage tag — e.g. buffer-cache
// flushes — is precisely the "time the framework never issued" that §3 of the
// paper says multitask frameworks cannot attribute.
//
// Timestamps are double seconds: virtual time from Simulation::now() in the
// simulator, wall-clock seconds from Tracer::WallNow() in the threaded engine.
// They share a trace file only in the trivial sense; mixing both in one run is
// not meaningful and not done.
//
// Thread safety: all mutation takes an internal mutex (the threaded engine
// traces from scheduler threads); current() is a relaxed atomic load.
#ifndef MONOTASKS_SRC_COMMON_TRACING_TRACER_H_
#define MONOTASKS_SRC_COMMON_TRACING_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace monotrace {

// Identifies a (process, track) row; obtained from Tracer::Track().
struct TrackRef {
  int pid = -1;
  int tid = -1;
  bool valid() const { return pid >= 0; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The installed tracer, or nullptr when tracing is off.
  static Tracer* current() { return current_.load(std::memory_order_relaxed); }

  // Registers (or looks up) a process group by name; returns its pid.
  int Process(const std::string& name);

  // Registers (or looks up) a named track within a process group.
  TrackRef Track(const std::string& process, const std::string& track);

  // Strictly-nested span pair on a fixed track ('B'/'E'). `stage`, when
  // non-empty, is attached as the span's stage-attribution argument.
  void BeginSpan(const TrackRef& track, const std::string& name, const char* category,
                 double ts, const std::string& stage = std::string());
  void EndSpan(const TrackRef& track, double ts);

  // A finished interval parked on an automatically-chosen lane of the group
  // `lane_base` within `process`: the first lane whose previous span ended at
  // or before `start`, else a new lane "<lane_base>#k". Correct as long as
  // spans in one lane group are emitted in nondecreasing end-time order —
  // which retroactive (completion-time) instrumentation guarantees.
  void CompleteOnLane(const std::string& process, const std::string& lane_base,
                      const std::string& name, const char* category, double start,
                      double end, const std::string& stage = std::string());

  // A sample of the named step-function counter ('C').
  void Counter(const std::string& process, const std::string& series, double ts,
               double value);

  // A point marker ('i'), e.g. an audit violation.
  void Instant(const std::string& process, const std::string& track,
               const std::string& name, double ts,
               const std::string& detail = std::string());

  // Wall-clock seconds since this tracer was created — the timestamp source for
  // the threaded engine, playing the role Simulation::now() plays in the
  // simulator.
  double WallNow() const;

  // Number of events recorded so far (excluding the metadata events synthesized
  // at serialization time).
  std::size_t event_count() const;

  // Serializes the trace: {"traceEvents":[...]} with metadata (process/track
  // names), timestamps in microseconds, events stably sorted by timestamp.
  std::string ToJson() const;

  // ToJson() to a file. Returns false (and logs) on I/O failure.
  bool WriteFile(const std::string& path) const;

 private:
  friend class ScopedTracer;
  friend Tracer* InstallEnvTracerOnce();

  struct Event {
    char phase;         // 'B', 'E', 'X', 'C', 'i'
    int pid = 0;
    int tid = 0;
    double ts = 0.0;    // seconds
    double dur = 0.0;   // seconds, 'X' only
    std::string name;
    const char* category = nullptr;  // static strings only
    std::string stage;  // args.stage for spans; args.detail for instants
    double value = 0.0;  // 'C' only
  };

  struct Lane {
    int tid = 0;
    double last_end = 0.0;
  };

  int ProcessLocked(const std::string& name);
  TrackRef TrackLocked(int pid, const std::string& track);

  static std::atomic<Tracer*> current_;

  mutable std::mutex mu_;
  std::vector<std::string> process_names_;
  std::unordered_map<std::string, int> process_ids_;
  // Track names per process, indexed by tid; tid 0 of every process is an
  // unnamed default row used by counters.
  std::vector<std::vector<std::string>> track_names_;
  std::vector<std::unordered_map<std::string, int>> track_ids_;
  std::map<std::pair<int, std::string>, std::vector<Lane>> lanes_;
  std::vector<Event> events_;
  std::chrono::steady_clock::time_point wall_epoch_;
};

// Installs a Tracer for the enclosing scope. Nests like ScopedAudit: the
// innermost tracer receives events and the previous one is restored on
// destruction.
class ScopedTracer {
 public:
  ScopedTracer();
  ~ScopedTracer();

  ScopedTracer(const ScopedTracer&) = delete;
  ScopedTracer& operator=(const ScopedTracer&) = delete;

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  Tracer tracer_;
  Tracer* previous_;
};

// True if the MONO_TRACE environment variable names an output path (non-empty,
// not "0").
bool TraceRequestedByEnv();

// When MONO_TRACE is set, installs a process-lifetime tracer on first call and
// registers an atexit hook that writes it to the MONO_TRACE path; later calls
// (and calls with MONO_TRACE unset) are no-ops. Returns the installed tracer or
// nullptr. Process-lifetime on purpose: a bench that runs the Spark baseline
// and the monotasks executor back to back lands both timelines in one file.
Tracer* InstallEnvTracerOnce();

}  // namespace monotrace

#endif  // MONOTASKS_SRC_COMMON_TRACING_TRACER_H_
