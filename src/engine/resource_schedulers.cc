#include "src/engine/resource_schedulers.h"

#include <chrono>
#include <string>

#include "src/common/check.h"
#include "src/common/tracing/metrics_registry.h"

namespace monotasks {

using monoutil::MutexLock;

namespace {

// engine.{cpu,disk,net}<suffix>.
monotrace::LatencyHistogram* EngineHistogram(ResourceType resource, const char* suffix) {
  const char* name = resource == ResourceType::kCpu    ? "cpu"
                     : resource == ResourceType::kDisk ? "disk"
                                                       : "net";
  return monotrace::MetricsRegistry::Global().Histogram(std::string("engine.") + name +
                                                        suffix);
}

}  // namespace

// Lifecycle decomposition (telemetry): the same queue-wait vs. service split the
// simulated executor records under mono.{cpu,disk}.*, measured here with real
// clocks on the worker threads. The histograms are lock-free, so recording from
// every worker concurrently is safe and cheap.
ResourceScheduler::ResourceScheduler(ResourceType resource, int threads,
                                     CompletionCallback on_complete)
    : resource_(resource), on_complete_(std::move(on_complete)),
      wait_hist_(EngineHistogram(resource, ".queue_wait_seconds")),
      service_hist_(EngineHistogram(resource, ".service_seconds")),
      queue_(resource == ResourceType::kDisk ? monoutil::kNumDiskPhases : 1) {
  MONO_CHECK(threads >= 1);
  MONO_CHECK(on_complete_ != nullptr);
  for (int t = 0; t < threads; ++t) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ResourceScheduler::~ResourceScheduler() { Shutdown(); }

void ResourceScheduler::Shutdown() {
  {
    const MutexLock lock(mutex_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  for (auto& thread : threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
}

void ResourceScheduler::Submit(Monotask* task) {
  MONO_CHECK(task != nullptr);
  MONO_CHECK(task->resource() == resource_);
  if (monotrace::TelemetryEnabled()) {
    task->submitted_at = std::chrono::steady_clock::now();
  }
  const int phase =
      resource_ == ResourceType::kDisk ? static_cast<int>(task->disk_phase) : 0;
  {
    const MutexLock lock(mutex_);
    queue_.Push(phase, task);
  }
  cv_.NotifyOne();
}

void ResourceScheduler::WorkerLoop() {
  while (true) {
    Monotask* task = nullptr;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && queue_.empty()) {
        cv_.Wait(mutex_);
      }
      if (shutdown_) {
        return;
      }
      task = queue_.Pop();
    }
    const auto start = std::chrono::steady_clock::now();
    // No wait is recorded when the submit stamp is missing (telemetry was off
    // at submit time).
    if (monotrace::TelemetryEnabled() &&
        task->submitted_at != std::chrono::steady_clock::time_point{}) {
      wait_hist_->Add(std::chrono::duration<double>(start - task->submitted_at).count());
    }
    task->Run();
    const double service =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (monotrace::TelemetryEnabled()) {
      service_hist_->Add(service);
    }
    on_complete_(task, service);
  }
}

}  // namespace monotasks
