// SparkTaskSim: one pipelined multitask (the white boxes in the paper's Fig 1).
//
// The task is a three-lane software pipeline over fixed-size chunks:
//
//   reader  ->  compute  ->  writer
//
// The reader is either a sequential block reader (DFS input, local or remote with the
// flow pipelined behind the remote disk read), an instant source (cached input), or a
// shuffle fetch engine running a bounded number of parallel per-source streams. The
// compute lane consumes one chunk at a time on the machine's CPU pool; the writer
// pushes output chunks into the OS buffer cache (or through to disk when the executor
// is configured write-through). Lanes run concurrently on *different* chunks — the
// fine-grained pipelining that monotasks eliminates.
#ifndef MONOTASKS_SRC_MULTITASK_SPARK_TASK_H_
#define MONOTASKS_SRC_MULTITASK_SPARK_TASK_H_

#include <deque>
#include <string>
#include <vector>

#include "src/framework/executor.h"

namespace monosim {

class SparkExecutorSim;

class SparkTaskSim final : public MultitaskSim {
 public:
  // Deliberately NOT MONO_SIM_OWNED: the executor destroys the task when it
  // completes, mid-run, so a `this` capture scheduled from here may only reach
  // APIs whose callbacks are guaranteed to fire before MaybeFinish() runs.
  SparkTaskSim(SparkExecutorSim* executor, TaskAssignment assignment,
               uint64_t dispatch_id);

 private:
  // Starts the reader and pumps the pipeline.
  void Run() override;

  // Pipeline drivers: each checks whether its lane can advance and issues the next
  // resource request if so. Called after every completion event.
  void AdvanceReader();
  void AdvanceCompute();
  void AdvanceWriter();
  void Pump();
  void MaybeFinish();

  // Reader backends.
  void IssueBlockRead();   // DFS input, local or remote.
  void StartNextFetch();   // Shuffle fetch engine.
  void OnChunkDelivered(monoutil::Bytes bytes);

  int chunks_ready() const;

  // Records a completed chunk-phase span ending now on `machine`'s lane group
  // `lane` (suffixed with `lane_index` when it is not negative: "disk1"),
  // tagged with this task's stage label. The lane name is built only when a
  // tracer is installed, so tracing off costs one branch.
  void TraceChunkSpan(int machine, const char* lane, int lane_index, const char* name,
                      const char* category, monoutil::SimTime start);

  SparkExecutorSim* executor_;

  // Chunk geometry.
  int total_chunks_ = 1;
  // Fractional per-chunk amounts (input_bytes / total_chunks): rounding to
  // whole bytes per chunk would drift the pipeline schedule and digests.
  // mono_lint: allow(raw-unit-double) -- fractional per-chunk bytes, see above.
  double chunk_input_bytes_ = 0.0;
  double chunk_cpu_seconds_ = 0.0;
  // mono_lint: allow(raw-unit-double) -- fractional, see above.
  double chunk_write_bytes_ = 0.0;
  bool has_input_io_ = false;

  // Reader state.
  int reads_issued_ = 0;       // Block reader: chunks issued.
  int reads_in_flight_ = 0;
  // mono_lint: allow(raw-unit-double) -- accumulates fractional chunks.
  double delivered_bytes_ = 0.0;
  // Delivered bytes this task still holds in the executor's buffered-byte
  // count; computing a chunk releases them.
  monoutil::Bytes buffered_;
  bool reader_done_ = false;
  // Shuffle fetch engine state.
  struct FetchPortion {
    int src_machine = 0;
    monoutil::Bytes bytes;
  };
  std::deque<FetchPortion> fetch_queue_;
  int active_fetches_ = 0;
  bool serve_from_disk_ = false;

  // Compute / writer state.
  bool compute_busy_ = false;
  int chunks_computed_ = 0;
  bool writer_busy_ = false;
  int chunks_written_ = 0;

  bool finished_ = false;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_MULTITASK_SPARK_TASK_H_
