#include "src/multitask/spark_executor.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "src/common/tracing/metrics_registry.h"
#include "src/multitask/spark_task.h"

namespace monosim {

SparkExecutorSim::SparkExecutorSim(Simulation* sim, ClusterSim* cluster, TaskPool* pool,
                                   SparkConfig config)
    : ExecutorSim(sim, cluster, pool,
                  {"spark", "slot", "spark-executor", "spark.tasks_completed"}),
      config_(config),
      serve_pools_(static_cast<size_t>(cluster->num_machines())) {}

void SparkExecutorSim::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  ExecutorSim::AuditInvariants(audit, phase);
  const SimTime now = sim_->now();
  const char* source = "spark-executor";
  for (size_t m = 0; m < serve_pools_.size(); ++m) {
    const ServePool& pool = serve_pools_[m];
    audit.ExpectLazy(pool.active >= 0 && pool.active <= kServeReadConcurrency &&
                         (pool.queue.empty() || pool.active == kServeReadConcurrency),
                     now, source, "serve-read-pool", [&] {
                       std::ostringstream d;
                       d << pool.active << " active and " << pool.queue.size()
                         << " queued serve read(s) with a pool of " << kServeReadConcurrency;
                       return d.str();
                     });
    if (phase == AuditPhase::kDrain) {
      audit.ExpectLazy(pool.active == 0 && pool.queue.empty(), now, source,
                       "drained-serve-reads", [&] {
                         std::ostringstream d;
                         d << "machine " << m << " has " << pool.active << " active and "
                           << pool.queue.size()
                           << " queued serve read(s) after the event queue drained";
                         return d.str();
                       });
    }
  }
}

int SparkExecutorSim::MultitaskLimit(int machine) const {
  if (config_.slots_per_machine > 0) {
    return config_.slots_per_machine;
  }
  return cluster_->machine(machine).num_cores();
}

std::unique_ptr<MultitaskSim> SparkExecutorSim::MakeTask(TaskAssignment assignment,
                                                         uint64_t dispatch_id) {
  return std::make_unique<SparkTaskSim>(this, std::move(assignment), dispatch_id);
}

void SparkExecutorSim::SubmitServeRead(int machine, ServeRequest request) {
  ServePool& pool = serve_pools_[static_cast<size_t>(machine)];
  if (pool.active < kServeReadConcurrency) {
    ++pool.active;
    StartServeRead(machine, std::move(request));
  } else {
    pool.queue.push_back(std::move(request));
  }
}

void SparkExecutorSim::StartServeRead(int machine, ServeRequest request) {
  // Queue-wait decomposition (telemetry.h): the shuffle service's I/O pool
  // is the Spark baseline's only explicit per-resource queue, so its wait is
  // the comparable number to mono.disk.queue_wait_seconds.
  if (monotrace::TelemetryEnabled()) {
    static monotrace::LatencyHistogram* wait_hist =
        monotrace::MetricsRegistry::Global().Histogram(
            "spark.serve_read.queue_wait_seconds");
    wait_hist->Add((sim_->now() - request.requested).seconds());
  }
  const SimTime dispatched = sim_->now();
  const int disk = PickServeDisk(machine);
  cluster_->machine(machine).disk(disk).Read(
      request.bytes, [this, machine, dispatched, done = std::move(request.done)]() mutable {
        if (monotrace::TelemetryEnabled()) {
          static monotrace::LatencyHistogram* service_hist =
              monotrace::MetricsRegistry::Global().Histogram(
                  "spark.serve_read.service_seconds");
          service_hist->Add((sim_->now() - dispatched).seconds());
        }
        ServePool& pool = serve_pools_[static_cast<size_t>(machine)];
        --pool.active;
        if (!pool.queue.empty()) {
          ServeRequest next = std::move(pool.queue.front());
          pool.queue.pop_front();
          ++pool.active;
          StartServeRead(machine, std::move(next));
        }
        done();
      });
}

double SparkExecutorSim::ChunkCpuFactor() {
  if (config_.chunk_cpu_jitter_cv <= 0.0) {
    return 1.0;
  }
  // Lognormal with mean 1: exp(N(-sigma^2/2, sigma)) where sigma ~ cv for small cv.
  const double sigma = config_.chunk_cpu_jitter_cv;
  return std::exp(rng_.Normal(-0.5 * sigma * sigma, sigma));
}

}  // namespace monosim
