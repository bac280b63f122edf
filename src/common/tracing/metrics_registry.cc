#include "src/common/tracing/metrics_registry.h"

namespace monotrace {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricCounter* MetricsRegistry::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &counters_[name];
}

LatencyHistogram* MetricsRegistry::Histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &histograms_[name];
}

double MetricsRegistry::Value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second.value();
}

std::map<std::string, double> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, counter] : counters_) {
    out.emplace(name, counter.value());
  }
  return out;
}

TelemetrySnapshot MetricsRegistry::TakeTelemetrySnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  TelemetrySnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter.value());
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSummary s;
    s.count = histogram.count();
    if (s.count > 0) {
      s.sum = histogram.sum();
      s.mean = s.sum / static_cast<double>(s.count);
      s.min = histogram.MinEstimate();
      s.p50 = histogram.Quantile(0.50);
      s.p90 = histogram.Quantile(0.90);
      s.p99 = histogram.Quantile(0.99);
      s.p999 = histogram.Quantile(0.999);
      s.max = histogram.MaxEstimate();
    }
    snap.histograms.emplace(name, s);
  }
  return snap;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter.Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram.Reset();
  }
}

}  // namespace monotrace
