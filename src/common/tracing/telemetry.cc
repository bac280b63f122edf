#include "src/common/tracing/telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/common/tracing/metrics_registry.h"

namespace monotrace {

namespace {

std::atomic<bool> g_telemetry_enabled{true};

}  // namespace

bool TelemetryEnabled() {
  return g_telemetry_enabled.load(std::memory_order_relaxed);
}

void SetTelemetryEnabled(bool enabled) {
  g_telemetry_enabled.store(enabled, std::memory_order_relaxed);
}

// ---- LatencyHistogram ----

int LatencyHistogram::BucketIndex(double value) {
  if (!(value > kMinValue)) return 0;  // Also catches NaN and negatives.
  int exp = 0;
  // frac in [0.5, 1): value = frac * 2^exp.
  const double frac = std::frexp(value, &exp);
  // Octave 0 holds [2^-30, 2^-29): frexp gives exp = -29 for that range.
  int octave = exp + 29;
  if (octave < 0) return 0;
  if (octave >= kOctaves) return kNumBuckets - 1;
  // Linear sub-bucket within the octave: frac-0.5 spans [0, 0.5).
  int sub = static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return octave * kSubBuckets + sub;
}

double LatencyHistogram::BucketValue(int index) {
  const int octave = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  // Bucket spans [lo, hi) within its octave; report the midpoint.
  const double base = std::ldexp(1.0, octave - 30);  // 2^(octave-30).
  const double lo = base * (1.0 + static_cast<double>(sub) / kSubBuckets);
  const double hi = base * (1.0 + static_cast<double>(sub + 1) / kSubBuckets);
  return 0.5 * (lo + hi);
}

uint64_t LatencyHistogram::count() const {
  uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double LatencyHistogram::Quantile(double q) const {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const uint64_t total = count();
  if (total == 0) return 0.0;
  // Rank of the q-th sample, 1-based, clamped to [1, total].
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * total));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return BucketValue(i);
  }
  return BucketValue(kNumBuckets - 1);
}

double LatencyHistogram::MaxEstimate() const {
  for (int i = kNumBuckets - 1; i >= 0; --i) {
    if (buckets_[i].load(std::memory_order_relaxed) != 0) {
      return BucketValue(i);
    }
  }
  return 0.0;
}

double LatencyHistogram::MinEstimate() const {
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i].load(std::memory_order_relaxed) != 0) {
      return BucketValue(i);
    }
  }
  return 0.0;
}

void LatencyHistogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

// ---- TelemetrySnapshot ----

namespace {

void AppendIndent(std::string* out, int n) { out->append(n, ' '); }

void AppendDouble(std::string* out, double v) {
  char buf[64];
  if (std::isnan(v)) {
    out->append("null");  // JSON has no NaN.
    return;
  }
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string TelemetrySnapshot::ToJson(int indent) const {
  std::string out;
  const int i0 = indent, i1 = indent + 2, i2 = indent + 4;
  AppendIndent(&out, i0);
  out += "{\n";

  AppendIndent(&out, i1);
  out += "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    AppendIndent(&out, i2);
    AppendQuoted(&out, name);
    out += ": ";
    AppendDouble(&out, value);
  }
  if (!first) {
    out += "\n";
    AppendIndent(&out, i1);
  }
  out += "},\n";

  AppendIndent(&out, i1);
  out += "\"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    AppendIndent(&out, i2);
    AppendQuoted(&out, name);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  ": {\"count\": %llu, \"sum\": %.9g, \"mean\": %.9g, "
                  "\"min\": %.9g, \"p50\": %.9g, \"p90\": %.9g, "
                  "\"p99\": %.9g, \"p999\": %.9g, \"max\": %.9g}",
                  static_cast<unsigned long long>(h.count), h.sum, h.mean,
                  h.min, h.p50, h.p90, h.p99, h.p999, h.max);
    out += buf;
  }
  if (!first) {
    out += "\n";
    AppendIndent(&out, i1);
  }
  out += "}\n";

  AppendIndent(&out, i0);
  out += "}";
  return out;
}

// ---- MONO_TELEMETRY env sink ----

bool TelemetrySinkRequestedByEnv() {
  const char* path = std::getenv("MONO_TELEMETRY");
  return path != nullptr && path[0] != '\0' &&
         !(path[0] == '0' && path[1] == '\0');
}

namespace {

void WriteEnvTelemetrySnapshot() {
  const char* path = std::getenv("MONO_TELEMETRY");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot open %s\n", path);
    return;
  }
  const std::string json =
      MetricsRegistry::Global().TakeTelemetrySnapshot().ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace

void InstallEnvTelemetrySinkOnce() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (TelemetrySinkRequestedByEnv()) {
      std::atexit(WriteEnvTelemetrySnapshot);
    }
  });
}

}  // namespace monotrace
