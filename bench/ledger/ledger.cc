// Performance ledger program: runs one workload of the deterministic cluster
// simulator in this process and writes its raw measurements as JSON. run.py
// turns them into medians, quartiles and per-layer self times (README.md).
//
// A workload is a fixed list of jobs, each in a fresh SimEnvironment, plus an
// analysis of their results; one repetition runs the whole list once. The
// first repetition is an untimed warm-up under the invariant audit. It records
// every job's event-stream digest, which each later repetition must reproduce.
// Timed repetitions follow until --seconds have passed, or exactly --reps.
//
// With --traced, every other timed repetition records the ledger's own spans
// (repetition -> job -> env_build / make_job / run_job / ..., plus the
// analysis calls) in memory; they are written out with the results, and the
// layer probes run at the end. The untraced repetitions in between give the
// tracing overhead. The program's monotrace::Tracer is never installed for
// this, since the simulator would then trace itself: only trace_roundtrip
// installs it, because tracing is that workload's subject.
//
// Usage:
//   ledger --workload <name> --out <results.json> [--seed N]
//          [--seconds S | --reps N] [--traced]
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/network.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/tracing/tracer.h"
#include "src/framework/environment.h"
#include "src/model/critical_path.h"
#include "src/model/monotasks_model.h"
#include "src/model/trace_report.h"
#include "src/monotask/mono_executor.h"
#include "src/multitask/spark_executor.h"
#include "src/simcore/audit.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"
#include "src/workloads/bdb.h"
#include "src/workloads/clusters.h"
#include "src/workloads/ml.h"
#include "src/workloads/sort.h"

namespace {

using Clock = std::chrono::steady_clock;

// Nanoseconds since the ledger started: span timestamps stay small integers.
const Clock::time_point kClockBase = Clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - kClockBase)
      .count();
}

// Peak resident set of this process in MiB: VmHWM from /proc/self/status.
// Not getrusage's ru_maxrss, which also keeps the high-water mark of the
// process image this one was exec'd from (the Python parent, for run.py).
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Simulated statistics of one repetition, summed over its jobs. A change that
// only speeds up the simulator must leave every one of them identical.
const char* const kSimStatNames[] = {
    "simcore.events",
    "cluster.fabric.solves",
    "cluster.fabric.flows_touched",
    "cluster.fabric.rate_changes",
    "cluster.fabric.batched_changes",
    "cluster.fabric.patched",
    "cluster.fabric.busy_side_s",
    "cluster.fabric.saturated_side_s",
    "cluster.disk.busy_s",
    "cluster.disk.saturated_s",
    "cluster.disk.read_bytes",
    "cluster.disk.write_bytes",
    "cluster.cpu.busy_s",
    "monotask.compute_queue_wait_s",
    "monotask.disk_queue_wait_s",
    "monotask.network_acquire_wait_s",
    "monotask.count",
    "framework.monotask_log.records",
    "tracing.events",
    "tracing.json_bytes",
    "model.fidelity_err_pct",
};

struct Span {
  const char* name;  // String literal.
  int rep;
  int job;     // Index of the job in its repetition; -1 for repetition-level spans.
  int parent;  // Index into the span list; -1 for the repetition root.
  int64_t start_ns;
  int64_t end_ns;
};

struct JobPlan {
  std::string label;  // "mono:bdb.1a/hdd"
  bool mono = false;
  monosim::ClusterConfig cluster;
  std::function<monosim::JobSpec(monosim::SimEnvironment&)> make_job;
  bool trace_cluster = false;
};

struct JobRecord {
  std::string label;
  uint64_t digest = 0;
  double sim_seconds = 0.0;
  uint64_t events = 0;
};

// Everything one process measures; written as JSON at exit.
struct Ledger {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  std::vector<JobRecord> reference;  // The warm-up's jobs, in order.
  std::vector<std::string> rep_json;
  std::vector<Span> spans;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// One pass over a workload's job list.
class Repetition {
 public:
  Repetition(Ledger* ledger, int index, bool warmup, bool traced)
      : ledger_(ledger), index_(index), warmup_(warmup), traced_(traced) {
    for (const char* name : kSimStatNames) {
      stats_[name] = 0.0;
    }
  }

  // A span over the enclosing scope, recorded only in traced repetitions.
  class ScopedSpan {
   public:
    ScopedSpan(Repetition& rep, const char* name, int job = -1) : rep_(rep) {
      if (!rep_.traced_) {
        return;
      }
      std::vector<Span>& spans = rep_.ledger_->spans;
      id_ = static_cast<int>(spans.size());
      const int parent = rep_.open_.empty() ? -1 : rep_.open_.back();
      spans.push_back({name, rep_.index_, job, parent, NowNs(), 0});
      rep_.open_.push_back(id_);
    }
    ~ScopedSpan() {
      if (id_ >= 0) {
        rep_.ledger_->spans[static_cast<size_t>(id_)].end_ns = NowNs();
        rep_.open_.pop_back();
      }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

   private:
    Repetition& rep_;
    int id_ = -1;
  };

  using AfterRun =
      std::function<void(int job, monosim::SimEnvironment&, const monosim::JobResult&)>;

  // Runs `plan` in a fresh environment; `after` sees the environment before it
  // is torn down. Set-up is everything before RunJob.
  monosim::JobResult Run(const JobPlan& plan, const AfterRun& after = nullptr) {
    const int job = static_cast<int>(jobs_.size());
    ScopedSpan job_span(*this, "job", job);
    const size_t violations_before = audit_violations();
    const int64_t setup_start = NowNs();
    std::unique_ptr<monosim::SimEnvironment> env;
    std::unique_ptr<monosim::ExecutorSim> executor;
    monosim::JobSpec spec;
    {
      ScopedSpan span(*this, "env_build", job);
      env = std::make_unique<monosim::SimEnvironment>(plan.cluster);
      if (plan.trace_cluster) {
        env->cluster().EnableTrace();
      }
      if (plan.mono) {
        executor = std::make_unique<monosim::MonotasksExecutorSim>(
            &env->sim(), &env->cluster(), &env->pool());
      } else {
        executor = std::make_unique<monosim::SparkExecutorSim>(
            &env->sim(), &env->cluster(), &env->pool());
      }
      env->AttachExecutor(executor.get());
    }
    {
      ScopedSpan span(*this, "make_job", job);
      spec = plan.make_job(*env);
    }
    setup_seconds_ += static_cast<double>(NowNs() - setup_start) * 1e-9;
    monosim::JobResult result;
    {
      ScopedSpan span(*this, "run_job", job);
      result = env->driver().RunJob(std::move(spec));
    }
    jobs_.push_back({plan.label, result.sim_digest, result.duration().seconds(),
                     env->sim().fired_events()});
    failures_.emplace_back();
    AddSimStats(*env, result);
    if (after) {
      after(job, *env, result);
    }
    {
      ScopedSpan span(*this, "env_teardown", job);
      executor.reset();
      env.reset();
    }
    if (audit_violations() > violations_before) {
      const monosim::AuditViolation& v =
          monosim::SimAudit::current()->violations()[violations_before];
      Fail(job, "audit violation " + v.source + "/" + v.invariant + ": " + v.detail);
    }
    return result;
  }

  // Marks `job` failed; a job counts once however many checks it fails.
  void Fail(int job, const std::string& why) {
    std::string& slot = failures_[static_cast<size_t>(job)];
    if (slot.empty()) {
      slot = why;
    }
  }

  int num_jobs() const { return static_cast<int>(jobs_.size()); }
  bool warmup() const { return warmup_; }
  void AddStat(const char* name, double value) { stats_.at(name) += value; }

  // Checks digests against the warm-up (or records them, in the warm-up) and
  // folds this repetition's jobs into the ledger's counts.
  void Finish() {
    for (size_t i = 0; i < jobs_.size(); ++i) {
      JobRecord& job = jobs_[i];
      if (warmup_) {
        ledger_->reference.push_back(job);
        continue;
      }
      const JobRecord& ref = ledger_->reference[i];
      if (job.digest != ref.digest) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "digest %016llx, warm-up %016llx",
                      static_cast<unsigned long long>(job.digest),
                      static_cast<unsigned long long>(ref.digest));
        Fail(static_cast<int>(i), buf);
      }
    }
    ledger_->attempted += jobs_.size();
    for (size_t i = 0; i < jobs_.size(); ++i) {
      if (!failures_[i].empty()) {
        ++ledger_->failed;
        ledger_->failures.push_back((warmup_ ? std::string("warm-up")
                                             : "rep " + std::to_string(index_)) +
                                    " " + jobs_[i].label + ": " + failures_[i]);
      }
    }
  }

  // The simulated statistics as a JSON object.
  std::string StatsJson() const {
    std::string out = "{";
    for (const auto& [name, value] : stats_) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", out.size() > 1 ? ", " : "",
                    name.c_str(), value);
      out += buf;
    }
    return out + "}";
  }

  double setup_seconds() const { return setup_seconds_; }

 private:
  static size_t audit_violations() {
    const monosim::SimAudit* audit = monosim::SimAudit::current();
    return audit == nullptr ? 0 : audit->violations().size();
  }

  void AddSimStats(monosim::SimEnvironment& env, const monosim::JobResult& result) {
    monosim::ClusterSim& cluster = env.cluster();
    const monosim::NetworkFabricSim& fabric = cluster.fabric();
    const monosim::NetworkFabricSim::SolverStats& solver = fabric.solver_stats();
    const auto count = [](uint64_t v) { return static_cast<double>(v); };
    AddStat("simcore.events", count(env.sim().fired_events()));
    AddStat("cluster.fabric.solves", count(solver.solves));
    AddStat("cluster.fabric.flows_touched", count(solver.flows_touched));
    AddStat("cluster.fabric.rate_changes", count(solver.rate_changes));
    AddStat("cluster.fabric.batched_changes", count(solver.batched_changes));
    AddStat("cluster.fabric.patched",
            count(solver.patched_arrivals + solver.patched_departures));
    AddStat("cluster.fabric.busy_side_s", fabric.busy_side_seconds().seconds());
    AddStat("cluster.fabric.saturated_side_s", fabric.saturated_side_seconds().seconds());
    for (int m = 0; m < cluster.num_machines(); ++m) {
      const monosim::MachineSim& machine = cluster.machine(m);
      AddStat("cluster.cpu.busy_s", machine.cpu().busy_seconds().seconds());
      for (int d = 0; d < machine.num_disks(); ++d) {
        const monosim::DiskSim& disk = machine.disk(d);
        AddStat("cluster.disk.busy_s", disk.busy_seconds().seconds());
        AddStat("cluster.disk.saturated_s", disk.saturated_seconds().seconds());
        AddStat("cluster.disk.read_bytes", static_cast<double>(disk.bytes_read().count()));
        AddStat("cluster.disk.write_bytes",
                static_cast<double>(disk.bytes_written().count()));
      }
    }
    for (const monosim::StageResult& stage : result.stages) {
      const monosim::MonotaskTimes& t = stage.monotask_times;
      AddStat("monotask.compute_queue_wait_s", t.compute_queue_wait_seconds);
      AddStat("monotask.disk_queue_wait_s", t.disk_queue_wait_seconds);
      AddStat("monotask.network_acquire_wait_s", t.network_acquire_wait_seconds);
      AddStat("monotask.count", t.compute_count + t.disk_count + t.network_count);
    }
    AddStat("framework.monotask_log.records", count(env.monotask_log().records().size()));
  }

  Ledger* ledger_;
  int index_;
  bool warmup_;
  bool traced_;
  std::vector<int> open_;
  std::vector<JobRecord> jobs_;
  std::vector<std::string> failures_;
  std::map<std::string, double> stats_;
  double setup_seconds_ = 0.0;
};

monosim::ClusterConfig Seeded(monosim::ClusterConfig config, uint64_t seed) {
  config.seed = seed;
  return config;
}

// ---------------------------------------------------------------------------
// Workloads. Each is a closed loop: one job at a time, each job in a fresh
// environment, so every job pays its own set-up.
// ---------------------------------------------------------------------------

// §5.2 headline: 600 GiB sort on 20 workers x 2 HDD, Spark then MonoSpark.
void SortHdd(Repetition& rep, uint64_t seed) {
  monoload::SortParams params;
  params.total_bytes = monoutil::GiB(600);
  params.values_per_key = 20;
  params.num_map_tasks = 960;
  params.num_reduce_tasks = 960;
  params.seed = seed;
  const auto make_job = [params](monosim::SimEnvironment& env) {
    return monoload::MakeSortJob(&env.dfs(), params);
  };
  const monosim::ClusterConfig cluster = Seeded(monoload::SortClusterConfig(), seed);
  const double spark = rep.Run({"spark:sort", false, cluster, make_job}).duration().seconds();
  const double mono = rep.Run({"mono:sort", true, cluster, make_job}).duration().seconds();
  const double paper = 88.0 / 57.0;
  rep.AddStat("model.fidelity_err_pct", 100.0 * std::fabs(spark / mono - paper) / paper);
}

// Fig 7 least squares on 15 x 2 SSD: compute-bound, shuffles in memory.
void MlFlash(Repetition& rep, uint64_t seed) {
  monoload::MlParams params;
  params.seed = seed;
  const auto make_job = [params](monosim::SimEnvironment&) {
    return monoload::MakeMlJob(params);
  };
  const monosim::ClusterConfig cluster = Seeded(monoload::MlClusterConfig(), seed);
  const double spark = rep.Run({"spark:ml", false, cluster, make_job}).duration().seconds();
  const double mono = rep.Run({"mono:ml", true, cluster, make_job}).duration().seconds();
  rep.AddStat("model.fidelity_err_pct", 100.0 * std::fabs(mono / spark - 1.0));
}

// `variant` names the cluster (and tracing) in the job's label, which must be
// unique within a repetition: "mono:bdb.1a/hdd".
JobPlan BdbPlan(monoload::BdbQuery query, bool mono, const char* variant,
                const monosim::ClusterConfig& cluster, uint64_t seed) {
  return {std::string(mono ? "mono" : "spark") + ":bdb." +
              monoload::BdbQueryName(query) + "/" + variant,
          mono, cluster,
          [query, seed](monosim::SimEnvironment& env) {
            return monoload::MakeBdbQueryJob(&env.dfs(), query, seed);
          }};
}

// Distance of `ratio` outside [lo, hi]; 0 inside the band.
double OutsideBand(double ratio, double lo, double hi) {
  return std::max({0.0, lo - ratio, ratio - hi});
}

// All ten Big Data Benchmark queries x {Spark, MonoSpark} x {HDD, SSD}.
void BdbSweep(Repetition& rep, uint64_t seed) {
  double worst = 0.0;
  for (const bool ssd : {false, true}) {
    const monosim::ClusterConfig cluster = Seeded(monoload::BdbClusterConfig(ssd), seed);
    const char* variant = ssd ? "ssd" : "hdd";
    for (const monoload::BdbQuery query : monoload::AllBdbQueries()) {
      const double spark =
          rep.Run(BdbPlan(query, false, variant, cluster, seed)).duration().seconds();
      const double mono =
          rep.Run(BdbPlan(query, true, variant, cluster, seed)).duration().seconds();
      // Paper bands for mono/Spark (§5.2); 1c's write-back gap is out of band
      // by design (§5.3).
      if (ssd) {
        worst = std::max(worst, OutsideBand(mono / spark, 0.76, 1.01));
      } else if (query != monoload::BdbQuery::k1c) {
        worst = std::max(worst, OutsideBand(mono / spark, 0.79, 1.05));
      }
    }
  }
  rep.AddStat("model.fidelity_err_pct", 100.0 * worst);
}

// The ten BDB queries under MonoSpark, each traced by the program's own tracer
// and round-tripped: Chrome-trace JSON, parse, trace report checked against
// the §6 model, and the critical path from the MonotaskLog checked against the
// trace. Then the Fig 12 model predicts 2 HDD -> 1 HDD per machine, checked
// against untraced 1-HDD runs.
void TraceRoundtrip(Repetition& rep, uint64_t seed) {
  using Span = Repetition::ScopedSpan;
  const monosim::ClusterConfig two_disk = Seeded(monoload::BdbClusterConfig(false), seed);
  monosim::ClusterConfig one_disk = two_disk;
  one_disk.machine.disks.resize(1);
  const std::vector<monoload::BdbQuery>& queries = monoload::AllBdbQueries();

  std::vector<int> traced_jobs;
  std::vector<uint64_t> traced_digests;
  std::vector<double> predicted;
  for (const monoload::BdbQuery query : queries) {
    JobPlan plan = BdbPlan(query, true, "hdd-traced", two_disk, seed);
    plan.trace_cluster = true;
    const int job = rep.num_jobs();
    auto tracer = std::make_unique<monotrace::ScopedTracer>();
    std::optional<monomodel::CriticalPathReport> path;
    const monosim::JobResult result =
        rep.Run(plan, [&](int, monosim::SimEnvironment& env, const monosim::JobResult&) {
          Span span(rep, "critical_path", job);
          path = monomodel::CriticalPathReport::Build(env.monotask_log());
        });
    traced_jobs.push_back(job);
    traced_digests.push_back(result.sim_digest);

    std::string json;
    {
      Span span(rep, "to_json", job);
      json = tracer->tracer().ToJson();
      rep.AddStat("tracing.events", static_cast<double>(tracer->tracer().event_count()));
      tracer.reset();
    }
    rep.AddStat("tracing.json_bytes", static_cast<double>(json.size()));
    monomodel::ParsedTrace parsed;
    {
      Span span(rep, "parse_trace", job);
      parsed = monomodel::ParseChromeTrace(json);
      std::string().swap(json);
    }
    if (!parsed.ok()) {
      rep.Fail(job, "trace parse error: " + parsed.errors.front());
    }

    std::optional<monomodel::MonotasksModel> model;
    {
      Span span(rep, "predict", job);
      model.emplace(result, monomodel::HardwareProfile::FromCluster(two_disk));
      predicted.push_back(
          model->PredictJobSeconds(model->baseline().WithDisksPerMachine(1)));
    }
    if (!std::isfinite(predicted.back())) {
      rep.Fail(job, "non-finite prediction");
    }

    monomodel::TraceReport report;
    {
      Span span(rep, "trace_report", job);
      report = monomodel::TraceReport::Build(parsed);
      for (const monomodel::CrossCheckEntry& entry : report.CrossCheckWithModel(*model)) {
        if (!entry.agree) {
          rep.Fail(job, "trace blames " + entry.trace_verdict + ", model " +
                            entry.model_verdict + " on " + entry.stage);
        }
      }
      parsed = monomodel::ParsedTrace();
    }
    {
      Span span(rep, "critical_path", job);
      std::map<int, std::string> labels;
      for (const monosim::StageResult& stage : result.stages) {
        labels[stage.stage_index] = "mono:" + stage.name;
      }
      for (const monomodel::CriticalPathCrossCheck& check :
           path->CrossCheckWithTrace(report, labels)) {
        if (!check.agree) {
          rep.Fail(job, "log and trace busy time differ on " + check.stage + "/" +
                            check.resource);
        }
      }
    }
  }

  double worst = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const double actual =
        rep.Run(BdbPlan(queries[i], true, "1hdd", one_disk, seed)).duration().seconds();
    worst = std::max(worst, monoutil::RelativeError(predicted[i], actual));
  }
  rep.AddStat("model.fidelity_err_pct", 100.0 * worst);

  // Tracing must not perturb the schedule: the warm-up reruns the traced jobs
  // untraced and compares digests.
  if (rep.warmup()) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (rep.Run(BdbPlan(queries[i], true, "hdd", two_disk, seed)).sim_digest !=
          traced_digests[i]) {
        rep.Fail(traced_jobs[i], "digest differs between traced and untraced runs");
      }
    }
  }
}

using WorkloadFn = void (*)(Repetition&, uint64_t);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> workloads = {
      {"sort_hdd", SortHdd},
      {"ml_flash", MlFlash},
      {"bdb_sweep", BdbSweep},
      {"trace_roundtrip", TraceRoundtrip},
  };
  return workloads;
}

// ---------------------------------------------------------------------------
// Layer probes (--traced only): public calls of one layer in a tight loop, so
// a kernel or fabric change shows at its own layer even when its end-to-end
// share is small. Each returns host nanoseconds per operation.
// ---------------------------------------------------------------------------

// Simulation::ScheduleAt + Run, 2M events.
double ProbeScheduleFire() {
  constexpr int kEvents = 2000000;
  monosim::Simulation sim;
  int fired = 0;
  const int64_t start = NowNs();
  for (int i = 0; i < kEvents; ++i) {
    sim.ScheduleAt(monoutil::Seconds(static_cast<double>(i % 9973)), [&fired] { ++fired; },
                   "probe");
  }
  sim.Run();
  const int64_t elapsed = NowNs() - start;
  if (fired != kEvents) {
    std::fprintf(stderr, "schedule_fire probe fired %d of %d events\n", fired, kEvents);
    std::exit(1);
  }
  return static_cast<double>(elapsed) / kEvents;
}

// FluidServer::Submit churn: 8 lanes, each submitting its next request when the
// previous one completes, so every submit and completion re-shares capacity.
double ProbeFluidSubmit(uint64_t seed) {
  constexpr int kLanes = 8;
  constexpr int kPerLane = 50000;
  monosim::Simulation sim;
  monosim::FluidServer server(&sim, "probe", [](double) { return 100.0; });
  monoutil::Rng rng(seed);
  int completed = 0;
  std::function<void(int)> submit = [&](int remaining) {
    if (remaining == 0) {
      return;
    }
    server.Submit(1.0 + rng.NextDouble(), [&submit, &completed, remaining] {
      ++completed;
      submit(remaining - 1);
    });
  };
  const int64_t start = NowNs();
  for (int lane = 0; lane < kLanes; ++lane) {
    submit(kPerLane);
  }
  sim.Run();
  const int64_t elapsed = NowNs() - start;
  if (completed != kLanes * kPerLane) {
    std::fprintf(stderr, "fluid_submit probe completed %d requests\n", completed);
    std::exit(1);
  }
  return static_cast<double>(elapsed) / (kLanes * kPerLane);
}

// NetworkFabricSim::StartFlow churn on 16 machines x 64 lanes: every
// completion starts a replacement flow, the shuffle inner loop.
double ProbeFabricChurn(uint64_t seed) {
  constexpr int kMachines = 16;
  constexpr int kLanes = 64;
  constexpr int kFlowsPerLane = 400;
  monosim::Simulation sim;
  monosim::NetworkFabricSim fabric(&sim, kMachines, monoutil::BytesPerSecond(1e8));
  monoutil::Rng rng(seed);
  int completed = 0;
  std::function<void(int)> launch = [&](int remaining) {
    if (remaining == 0) {
      return;
    }
    const int src = static_cast<int>(rng.NextBelow(kMachines));
    int dst = static_cast<int>(rng.NextBelow(kMachines - 1));
    if (dst >= src) {
      ++dst;
    }
    const monoutil::Bytes bytes(static_cast<int64_t>(1 + rng.NextBelow(1 << 20)));
    fabric.StartFlow(src, dst, bytes, [&launch, &completed, remaining] {
      ++completed;
      launch(remaining - 1);
    });
  };
  const int64_t start = NowNs();
  for (int lane = 0; lane < kLanes; ++lane) {
    launch(kFlowsPerLane);
  }
  sim.Run();
  const int64_t elapsed = NowNs() - start;
  if (completed != kLanes * kFlowsPerLane) {
    std::fprintf(stderr, "fabric_churn probe completed %d flows\n", completed);
    std::exit(1);
  }
  return static_cast<double>(elapsed) / (kLanes * kFlowsPerLane);
}

// Median of three runs of `probe`.
double MedianOf3(const std::function<double()>& probe) {
  double runs[3] = {probe(), probe(), probe()};
  std::sort(runs, runs + 3);
  return runs[1];
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteResults(const Ledger& ledger, const std::string& probes_json,
                  const std::string& path) {
  std::ofstream out(path);
  out << "{\"workload\": " << JsonString(ledger.workload) << ", \"seed\": " << ledger.seed
      << ", \"traced\": " << (ledger.traced ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted << ", \"failed\": " << ledger.failed;
  char buf[256];
  std::snprintf(buf, sizeof(buf), ", \"peak_rss_mb\": %.6f", PeakRssMb());
  out << buf << ",\n\"failures\": [";
  for (size_t i = 0; i < ledger.failures.size(); ++i) {
    out << (i ? ", " : "") << JsonString(ledger.failures[i]);
  }
  out << "],\n\"jobs\": [";
  for (size_t i = 0; i < ledger.reference.size(); ++i) {
    const JobRecord& job = ledger.reference[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"label\": \"%s\", \"digest\": \"%016llx\", \"sim_s\": %.17g, "
                  "\"events\": %llu}",
                  i ? "," : "", job.label.c_str(),
                  static_cast<unsigned long long>(job.digest), job.sim_seconds,
                  static_cast<unsigned long long>(job.events));
    out << buf;
  }
  out << "],\n\"reps\": [";
  for (size_t i = 0; i < ledger.rep_json.size(); ++i) {
    out << (i ? ",\n  " : "\n  ") << ledger.rep_json[i];
  }
  out << "],\n\"spans\": [";
  for (size_t i = 0; i < ledger.spans.size(); ++i) {
    const Span& s = ledger.spans[i];
    std::snprintf(buf, sizeof(buf), "%s\n  [%d, \"%s\", %d, %d, %lld, %lld]", i ? "," : "",
                  s.rep, s.name, s.job, s.parent, static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out << buf;
  }
  out << "],\n\"probes\": " << probes_json << "}\n";
}

int Usage() {
  std::fprintf(stderr,
               "usage: ledger --workload <name> --out <results.json> [--seed N]\n"
               "              [--seconds S | --reps N] [--traced]\n"
               "workloads:");
  for (const auto& [name, fn] : Workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Ledger ledger;
  std::string out_path;
  double seconds = 10.0;
  int fixed_reps = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--traced") {
      ledger.traced = true;
    } else if (arg == "--workload" && has_value) {
      ledger.workload = argv[++i];
    } else if (arg == "--out" && has_value) {
      out_path = argv[++i];
    } else if (arg == "--seed" && has_value) {
      ledger.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--reps" && has_value) {
      fixed_reps = std::atoi(argv[++i]);
    } else {
      return Usage();
    }
  }
  const auto workload = Workloads().find(ledger.workload);
  // A traced run needs an untraced and a traced repetition at least.
  if (workload == Workloads().end() || out_path.empty() ||
      (ledger.traced && fixed_reps == 1)) {
    return Usage();
  }

  {
    monosim::ScopedAudit audit(monosim::ScopedAudit::kReport);
    Repetition warmup(&ledger, -1, /*warmup=*/true, /*traced=*/false);
    workload->second(warmup, ledger.seed);
    warmup.Finish();
  }

  // Untraced runs measure at least three repetitions; traced runs alternate
  // untraced and traced ones, at least two of each.
  const int min_reps = fixed_reps > 0 ? fixed_reps : (ledger.traced ? 4 : 3);
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int r = 0; r < min_reps || (fixed_reps == 0 && NowNs() < deadline); ++r) {
    const bool traced = ledger.traced && r % 2 == 1;
    Repetition rep(&ledger, r, /*warmup=*/false, traced);
    const double cpu_start = ProcessCpuSeconds();
    const int64_t wall_start = NowNs();
    {
      Repetition::ScopedSpan root(rep, "repetition");
      workload->second(rep, ledger.seed);
    }
    const double wall = static_cast<double>(NowNs() - wall_start) * 1e-9;
    const double cpu = ProcessCpuSeconds() - cpu_start;
    rep.Finish();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"rep\": %d, \"traced\": %s, \"wall_s\": %.9f, \"cpu_s\": %.9f, "
                  "\"setup_s\": %.9f, \"sim\": ",
                  r, traced ? "true" : "false", wall, cpu, rep.setup_seconds());
    ledger.rep_json.push_back(buf + rep.StatsJson() + "}");
    std::fprintf(stderr, "%s rep %d: %.3f s wall%s\n", ledger.workload.c_str(), r, wall,
                 traced ? " (traced)" : "");
  }

  std::string probes = "{}";
  if (ledger.traced) {
    const uint64_t seed = ledger.seed;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"simcore.probe.schedule_fire_ns\": %.6f, "
                  "\"simcore.probe.fluid_submit_ns\": %.6f, "
                  "\"cluster.probe.fabric_churn_ns\": %.6f}",
                  MedianOf3(ProbeScheduleFire),
                  MedianOf3([seed] { return ProbeFluidSubmit(seed); }),
                  MedianOf3([seed] { return ProbeFabricChurn(seed); }));
    probes = buf;
  }
  WriteResults(ledger, probes, out_path);
  for (const std::string& failure : ledger.failures) {
    std::fprintf(stderr, "FAILED %s\n", failure.c_str());
  }
  return ledger.failed == 0 ? 0 : 1;
}
