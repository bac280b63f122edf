// SparkExecutorSim: the baseline architecture — today's multi-resource tasks.
//
// Reproduces the execution model the paper describes in §2.1: each multitask runs in a
// slot (slots per machine = cores by default, configurable as in Fig 18), and uses a
// single thread that pipelines resource use at fine granularity. Input is read
// chunk-by-chunk with OS readahead, computation streams over chunks, and output is
// written to the OS buffer cache, which flushes asynchronously (the write_through
// option forces synchronous flushing, the "Spark with sync-to-disk" bars in Fig 5).
// Shuffle data is fetched with a bounded number of parallel streams per task and is
// served from the remote machine's page cache when the shuffle fits in memory.
//
// The resulting behaviour exhibits exactly the three clarity problems of §2.2:
// per-task resource use oscillates (Fig 2), concurrent tasks contend on the devices,
// and the buffer cache causes disk work the framework never issued.
#ifndef MONOTASKS_SRC_MULTITASK_SPARK_EXECUTOR_H_
#define MONOTASKS_SRC_MULTITASK_SPARK_EXECUTOR_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cluster/machine.h"
#include "src/common/rng.h"
#include "src/framework/executor.h"
#include "src/framework/task.h"
#include "src/framework/task_pool.h"
#include "src/simcore/audit.h"
#include "src/simcore/inline_callback.h"
#include "src/simcore/simulation.h"

namespace monosim {

class SparkTaskSim;

struct SparkConfig {
  // Concurrent tasks per machine; 0 means "number of cores" (Spark's default).
  int slots_per_machine = 0;
  // Synchronously flush writes to disk instead of leaving them in the buffer cache.
  bool write_through = false;
  // Coefficient of variation of per-chunk CPU time (0 = deterministic). Real tasks
  // see per-record skew and JVM pauses; enabling this reproduces the fine-grained
  // bottleneck oscillation of Fig 2 without changing mean runtimes.
  double chunk_cpu_jitter_cv = 0.0;
};

class SparkExecutorSim : public ExecutorSim, public Auditable {
 public:
  // Machine-side execution; outlives the simulation run (tests/benches keep it
  // alive past Run()), so `this` captures into completion plumbing cannot
  // dangle.
  MONO_SIM_OWNED;

  SparkExecutorSim(Simulation* sim, ClusterSim* cluster, TaskPool* pool,
                   SparkConfig config = {});
  ~SparkExecutorSim() override;

  void OnWorkAvailable() override;
  monoutil::Bytes peak_buffered_bytes() const override { return peak_buffered_; }
  const char* trace_name() const override { return "spark"; }

  const SparkConfig& config() const { return config_; }

  // Concurrent shuffle-serve disk reads per machine (the shuffle service's I/O
  // thread pool). Unlike the monotask disk scheduler this does not coordinate with
  // the tasks' own reads and writes, so contention remains.
  static constexpr int kServeReadConcurrency = 4;

  // Invariant auditing (audit.h): per-machine busy-slot counts match the running
  // registry; serve reads stay within kServeReadConcurrency and queue only while
  // the pool is full; at drain no task, serve read, or queued serve request is
  // left.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

 private:
  friend class SparkTaskSim;

  // A serve read waiting for, or holding, a slot of the shuffle service's pool.
  struct ServeRequest {
    monoutil::Bytes bytes;
    SimTime requested;
    InlineCallback done;
  };

  struct MachineState {
    int busy_slots = 0;
    int next_write_disk = 0;
    int next_serve_disk = 0;
    monoutil::Bytes buffered_bytes;
    int active_serve_reads = 0;
    std::deque<ServeRequest> serve_read_queue;  // FIFO.
  };

  void TryDispatch(int machine);
  bool DispatchOne(int machine);
  void OnTaskComplete(SparkTaskSim* task);
  int SlotsFor(int machine) const;
  int PickWriteDisk(int machine);
  int PickServeDisk(int machine);
  // Reads shuffle data on `machine` on behalf of a remote fetch, bounded by the
  // shuffle service's I/O concurrency; `done` (any void() callable) is wrapped
  // once against the simulation's callback arena and fires when the data is read.
  template <typename F>
  void ServeRead(int machine, monoutil::Bytes bytes, F&& done) {
    SubmitServeRead(machine, ServeRequest{bytes, sim_->now(),
                                          WrapCallback(std::forward<F>(done),
                                                       sim_->callback_arena())});
  }
  void SubmitServeRead(int machine, ServeRequest request);
  void StartServeRead(int machine, ServeRequest request);
  void AddBuffered(int machine, monoutil::Bytes bytes);
  void RemoveBuffered(int machine, monoutil::Bytes bytes);
  // Trace process group for a machine's work under this executor.
  std::string TraceProcess(int machine) const {
    return "spark:m" + std::to_string(machine);
  }
  // Multiplicative factor applied to one chunk's CPU time (mean 1; see
  // chunk_cpu_jitter_cv).
  double ChunkCpuFactor();

  Simulation* sim_;
  ClusterSim* cluster_;
  TaskPool* pool_;
  SparkConfig config_;

  std::vector<MachineState> machines_;
  // Running registry keyed by the executor-assigned dispatch id, not the
  // task's address: no schedule decision may depend on heap layout
  // (determinism contract, DESIGN §10).
  std::unordered_map<uint64_t, std::unique_ptr<SparkTaskSim>> running_;
  uint64_t next_dispatch_id_ = 0;
  monoutil::Bytes peak_buffered_;
  monoutil::Rng rng_{20171028};  // Drives chunk jitter only.
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_MULTITASK_SPARK_EXECUTOR_H_
