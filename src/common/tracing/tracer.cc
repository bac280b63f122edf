#include "src/common/tracing/tracer.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/logging.h"

namespace monotrace {
namespace {

// JSON string escaping for names and stage labels.
void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Formats with std::to_chars, which rounds exactly as printf does ("%.3f",
// "%.9g", "%d") without the locale and varargs cost. The buffer fits any
// double in fixed notation.
template <typename T, typename... Format>
void AppendChars(std::string& out, T value, Format... format) {
  char buf[std::numeric_limits<double>::max_exponent10 + 8];
  const std::to_chars_result result = std::to_chars(buf, buf + sizeof(buf), value, format...);
  out.append(buf, result.ptr);
}

void AppendNumber(std::string& out, double v) {
  AppendChars(out, v, std::chars_format::general, 9);
}

// Timestamps: seconds -> microseconds with sub-microsecond precision kept.
void AppendMicros(std::string& out, double seconds) {
  AppendChars(out, seconds * 1e6, std::chars_format::fixed, 3);
}

}  // namespace

std::atomic<Tracer*> Tracer::current_{nullptr};

Tracer::Tracer() : wall_epoch_(std::chrono::steady_clock::now()) {}

int Tracer::ProcessLocked(const std::string& name) {
  auto it = process_ids_.find(name);
  if (it != process_ids_.end()) {
    return it->second;
  }
  const int pid = static_cast<int>(process_names_.size());
  process_ids_.emplace(name, pid);
  process_names_.push_back(name);
  // tid 0 is the process's unnamed default row (counters live there).
  track_names_.push_back({std::string()});
  track_ids_.push_back({});
  return pid;
}

TrackRef Tracer::TrackLocked(int pid, const std::string& track) {
  auto& ids = track_ids_[static_cast<std::size_t>(pid)];
  auto it = ids.find(track);
  if (it != ids.end()) {
    return TrackRef{pid, it->second};
  }
  auto& names = track_names_[static_cast<std::size_t>(pid)];
  const int tid = static_cast<int>(names.size());
  ids.emplace(track, tid);
  names.push_back(track);
  return TrackRef{pid, tid};
}

int Tracer::Process(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return ProcessLocked(name);
}

TrackRef Tracer::Track(const std::string& process, const std::string& track) {
  std::lock_guard<std::mutex> lock(mu_);
  return TrackLocked(ProcessLocked(process), track);
}

void Tracer::BeginSpan(const TrackRef& track, const std::string& name,
                       const char* category, double ts, const std::string& stage) {
  MONO_CHECK(track.valid());
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{'B', track.pid, track.tid, ts, 0.0, name, category, stage, 0.0});
}

void Tracer::EndSpan(const TrackRef& track, double ts) {
  MONO_CHECK(track.valid());
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(
      Event{'E', track.pid, track.tid, ts, 0.0, std::string(), nullptr, std::string(), 0.0});
}

void Tracer::CompleteOnLane(const std::string& process, const std::string& lane_base,
                            const std::string& name, const char* category, double start,
                            double end, const std::string& stage) {
  std::lock_guard<std::mutex> lock(mu_);
  const int pid = ProcessLocked(process);
  auto& lanes = lanes_[{pid, lane_base}];
  Lane* lane = nullptr;
  for (auto& candidate : lanes) {
    // A hair of slack absorbs floating-point jitter between a span's recorded
    // end and the next span's start at the same simulated instant.
    if (candidate.last_end <= start + 1e-12) {
      lane = &candidate;
      break;
    }
  }
  if (lane == nullptr) {
    std::ostringstream track_name;
    track_name << lane_base << "#" << lanes.size();
    const TrackRef track = TrackLocked(pid, track_name.str());
    lanes.push_back(Lane{track.tid, 0.0});
    lane = &lanes.back();
  }
  lane->last_end = std::max(lane->last_end, end);
  events_.push_back(Event{'X', pid, lane->tid, start, std::max(0.0, end - start), name,
                          category, stage, 0.0});
}

void Tracer::Counter(const std::string& process, const std::string& series, double ts,
                     double value) {
  std::lock_guard<std::mutex> lock(mu_);
  const int pid = ProcessLocked(process);
  events_.push_back(Event{'C', pid, 0, ts, 0.0, series, nullptr, std::string(), value});
}

void Tracer::Instant(const std::string& process, const std::string& track,
                     const std::string& name, double ts, const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  const TrackRef ref = TrackLocked(ProcessLocked(process), track);
  events_.push_back(Event{'i', ref.pid, ref.tid, ts, 0.0, name, nullptr, detail, 0.0});
}

double Tracer::WallNow() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_epoch_)
      .count();
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string Tracer::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Stable sort by timestamp: viewers require nondecreasing ts, and stability
  // keeps each 'B' ahead of its zero-length 'E' recorded at the same instant.
  std::vector<const Event*> ordered;
  ordered.reserve(events_.size());
  for (const Event& e : events_) {
    ordered.push_back(&e);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event* a, const Event* b) { return a->ts < b->ts; });

  std::string out;
  out.reserve(128 + 96 * (ordered.size() + process_names_.size()));
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&out, &first] {
    if (!first) {
      out += ",\n";
    }
    first = false;
  };

  // Metadata: process and track names.
  for (std::size_t pid = 0; pid < process_names_.size(); ++pid) {
    comma();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    AppendChars(out, pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    AppendEscaped(out, process_names_[pid]);
    out += "\"}}";
    const auto& tracks = track_names_[pid];
    for (std::size_t tid = 1; tid < tracks.size(); ++tid) {
      comma();
      out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
      AppendChars(out, pid);
      out += ",\"tid\":";
      AppendChars(out, tid);
      out += ",\"args\":{\"name\":\"";
      AppendEscaped(out, tracks[tid]);
      out += "\"}}";
    }
  }

  for (const Event* e : ordered) {
    comma();
    out += "{\"ph\":\"";
    out += e->phase;
    out += "\",\"pid\":";
    AppendChars(out, e->pid);
    out += ",\"tid\":";
    AppendChars(out, e->tid);
    out += ",\"ts\":";
    AppendMicros(out, e->ts);
    if (e->phase == 'X') {
      out += ",\"dur\":";
      AppendMicros(out, e->dur);
    }
    if (e->phase != 'E') {
      out += ",\"name\":\"";
      AppendEscaped(out, e->name);
      out += "\"";
    }
    if (e->category != nullptr) {
      out += ",\"cat\":\"";
      AppendEscaped(out, e->category);
      out += "\"";
    }
    if (e->phase == 'i') {
      out += ",\"s\":\"t\"";
    }
    if (e->phase == 'C') {
      out += ",\"args\":{\"value\":";
      AppendNumber(out, e->value);
      out += "}";
    } else if (e->phase == 'i') {
      out += ",\"args\":{\"detail\":\"";
      AppendEscaped(out, e->stage);
      out += "\"}";
    } else if (!e->stage.empty()) {
      out += ",\"args\":{\"stage\":\"";
      AppendEscaped(out, e->stage);
      out += "\"}";
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

bool Tracer::WriteFile(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    MONO_LOG(kError) << "Tracer: cannot open trace output " << path;
    return false;
  }
  file << ToJson();
  file.flush();
  if (!file) {
    MONO_LOG(kError) << "Tracer: short write to " << path;
    return false;
  }
  return true;
}

ScopedTracer::ScopedTracer() : previous_(Tracer::current()) {
  Tracer::current_.store(&tracer_, std::memory_order_relaxed);
}

ScopedTracer::~ScopedTracer() {
  Tracer::current_.store(previous_, std::memory_order_relaxed);
}

bool TraceRequestedByEnv() {
  const char* value = std::getenv("MONO_TRACE");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

namespace {
Tracer* env_tracer = nullptr;
std::string* env_trace_path = nullptr;
}  // namespace

Tracer* InstallEnvTracerOnce() {
  static bool attempted = false;
  if (attempted) {
    return env_tracer;
  }
  attempted = true;
  if (!TraceRequestedByEnv()) {
    return nullptr;
  }
  // Intentionally leaked: the atexit hook below is the last user.
  env_tracer = new Tracer();
  env_trace_path = new std::string(std::getenv("MONO_TRACE"));
  Tracer::current_.store(env_tracer, std::memory_order_relaxed);
  std::atexit([] {
    if (env_tracer->WriteFile(*env_trace_path)) {
      MONO_LOG(kInfo) << "Tracer: wrote " << env_tracer->event_count() << " events to "
                     << *env_trace_path << " (open in https://ui.perfetto.dev)";
    }
  });
  return env_tracer;
}

}  // namespace monotrace
