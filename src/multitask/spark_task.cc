#include "src/multitask/spark_task.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/tracer.h"
#include "src/framework/shuffle_layout.h"
#include "src/framework/stage_execution.h"
#include "src/multitask/spark_executor.h"

namespace monosim {

using monoutil::Bytes;

namespace {

// Pipelining granularity: how much data moves between resources at once.
constexpr Bytes kChunkBytes = monoutil::MiB(4);
// Read-ahead depth: chunks that may be read but not yet consumed by compute, and
// computed chunks the writer may fall behind by.
constexpr int kReadaheadChunks = 2;
// Concurrent shuffle fetch streams per reduce task.
constexpr int kMaxParallelFetches = 5;

}  // namespace

SparkTaskSim::SparkTaskSim(SparkExecutorSim* executor, TaskAssignment assignment,
                           uint64_t dispatch_id)
    : MultitaskSim(std::move(assignment), dispatch_id, executor->sim_->now()),
      executor_(executor) {
  const StageSpec& spec = assignment_.stage->spec();
  has_input_io_ = (spec.input == InputSource::kDfs || spec.input == InputSource::kShuffle) &&
                  assignment_.input_bytes > Bytes(0);

  if (assignment_.input_bytes > Bytes(0)) {
    total_chunks_ = static_cast<int>(
        (assignment_.input_bytes + kChunkBytes - Bytes(1)).count() / kChunkBytes.count());
  } else if (write_total_ > Bytes(0)) {
    total_chunks_ =
        static_cast<int>((write_total_ + kChunkBytes - Bytes(1)).count() /
                         kChunkBytes.count());
  } else {
    total_chunks_ = 1;
  }
  chunk_input_bytes_ =
      static_cast<double>(assignment_.input_bytes.count()) /
      static_cast<double>(total_chunks_);
  chunk_cpu_seconds_ = assignment_.cpu_seconds / static_cast<double>(total_chunks_);
  chunk_write_bytes_ =
      static_cast<double>(write_total_.count()) / static_cast<double>(total_chunks_);
}

void SparkTaskSim::TraceChunkSpan(int machine, const char* lane, int lane_index,
                                  const char* name, const char* category,
                                  monoutil::SimTime start) {
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    std::string lane_base = lane;
    if (lane_index >= 0) {
      lane_base += std::to_string(lane_index);
    }
    tracer->CompleteOnLane(executor_->TraceProcess(machine), lane_base, name, category,
                           start.seconds(), executor_->sim_->now().seconds(),
                           assignment_.stage->trace_label());
  }
}

void SparkTaskSim::Run() {
  if (!has_input_io_) {
    reader_done_ = true;
    delivered_bytes_ = static_cast<double>(assignment_.input_bytes.count());
  } else if (assignment_.stage->spec().input == InputSource::kShuffle) {
    for (const ShufflePortion& portion : ComputeShufflePortions(assignment_)) {
      fetch_queue_.push_back(FetchPortion{portion.src_machine, portion.bytes});
    }
    serve_from_disk_ = !assignment_.stage->prev()->spec().shuffle_to_memory;
  }
  Pump();
}

int SparkTaskSim::chunks_ready() const {
  if (!has_input_io_) {
    return total_chunks_;
  }
  if (reader_done_ && fetch_queue_.empty() && active_fetches_ == 0 &&
      reads_in_flight_ == 0) {
    return total_chunks_;
  }
  // Small epsilon absorbs floating-point drift in per-chunk byte accounting.
  return std::min(total_chunks_,
                  static_cast<int>((delivered_bytes_ + 1e-3) / chunk_input_bytes_));
}

void SparkTaskSim::Pump() {
  if (finished_) {
    return;
  }
  AdvanceReader();
  AdvanceCompute();
  AdvanceWriter();
  MaybeFinish();
}

void SparkTaskSim::AdvanceReader() {
  const StageSpec& spec = assignment_.stage->spec();
  if (!has_input_io_ || reader_done_) {
    return;
  }
  if (spec.input == InputSource::kDfs) {
    IssueBlockRead();
  } else {
    StartNextFetch();
  }
}

void SparkTaskSim::IssueBlockRead() {
  // Sequential stream with bounded read-ahead: at most kReadaheadChunks chunks may
  // be issued beyond what compute has consumed, and the stream keeps a limited number
  // of requests in flight (two when a network hop is pipelined behind the disk).
  const int consumed = chunks_computed_ + (compute_busy_ ? 1 : 0);
  const int max_in_flight = assignment_.input_local ? 1 : 2;
  while (reads_issued_ < total_chunks_ && reads_in_flight_ < max_in_flight &&
         reads_issued_ - consumed < kReadaheadChunks) {
    ++reads_issued_;
    ++reads_in_flight_;
    const double bytes = chunk_input_bytes_;
    const SimTime read_start = executor_->sim_->now();
    DiskSim& disk =
        executor_->cluster_->machine(assignment_.input_machine).disk(assignment_.input_disk);
    if (assignment_.input_local) {
      // mono_lint: allow(escaping-capture) -- pipeline callback, fires before MaybeFinish().
      disk.Read(Bytes(static_cast<int64_t>(bytes)), [this, bytes, read_start] {
        TraceChunkSpan(assignment_.input_machine, "disk", assignment_.input_disk,
                       "block-read", "disk", read_start);
        --reads_in_flight_;
        if (reads_issued_ == total_chunks_ && reads_in_flight_ == 0) {
          reader_done_ = true;
        }
        OnChunkDelivered(Bytes(static_cast<int64_t>(bytes)));
      });
    } else {
      // Remote block: disk read on the block's home machine, then a network flow.
      // mono_lint: allow(escaping-capture) -- pipeline callback, fires before MaybeFinish().
      disk.Read(Bytes(static_cast<int64_t>(bytes)), [this, bytes, read_start] {
        TraceChunkSpan(assignment_.input_machine, "disk", assignment_.input_disk,
                       "block-read", "disk", read_start);
        const SimTime flow_start = executor_->sim_->now();
        executor_->cluster_->fabric().StartFlow(
            assignment_.input_machine, assignment_.machine, Bytes(static_cast<int64_t>(bytes)),
            // mono_lint: allow(escaping-capture) -- pipeline callback, fires before MaybeFinish().
            [this, bytes, flow_start] {
              TraceChunkSpan(assignment_.machine, "net-in", -1, "block-flow", "network",
                             flow_start);
              --reads_in_flight_;
              if (reads_issued_ == total_chunks_ && reads_in_flight_ == 0) {
                reader_done_ = true;
              }
              OnChunkDelivered(Bytes(static_cast<int64_t>(bytes)));
            });
      });
    }
  }
}

void SparkTaskSim::StartNextFetch() {
  auto& usage = assignment_.stage->result().usage;
  while (active_fetches_ < kMaxParallelFetches &&
         !fetch_queue_.empty()) {
    const FetchPortion portion = fetch_queue_.front();
    fetch_queue_.pop_front();
    ++active_fetches_;

    auto delivered = [this, portion] {
      --active_fetches_;
      if (fetch_queue_.empty() && active_fetches_ == 0) {
        reader_done_ = true;
      }
      OnChunkDelivered(portion.bytes);
    };

    if (portion.src_machine == assignment_.machine) {
      // Local shuffle data: read from the local disk, or straight from the page
      // cache when the shuffle fits in memory.
      if (serve_from_disk_) {
        usage.disk_read_bytes += portion.bytes;
        const int disk = executor_->PickServeDisk(assignment_.machine);
        const SimTime read_start = executor_->sim_->now();
        executor_->cluster_->machine(assignment_.machine).disk(disk).Read(
            // mono_lint: allow(escaping-capture) -- pipeline callback, fires before MaybeFinish().
            portion.bytes, [this, disk, read_start, delivered = std::move(delivered)] {
              TraceChunkSpan(assignment_.machine, "disk", disk, "shuffle-read", "disk",
                             read_start);
              delivered();
            });
      } else {
        executor_->sim_->ScheduleAfter(SimTime(), std::move(delivered));
      }
      continue;
    }
    usage.network_bytes += portion.bytes;
    if (serve_from_disk_) {
      usage.disk_read_bytes += portion.bytes;
    }
    // Remote portion: request message, then (optionally) a disk read on the serving
    // machine through the shuffle service's bounded I/O pool, then the bulk flow back.
    executor_->cluster_->fabric().SendControl(
        // mono_lint: allow(escaping-capture) -- pipeline callback, fires before MaybeFinish().
        assignment_.machine, portion.src_machine, [this, portion, delivered] {
          // The serve-read span starts when the request reaches the serving
          // machine, so shuffle-service queueing is visible inside it.
          const SimTime serve_start = executor_->sim_->now();
          // mono_lint: allow(escaping-capture) -- pipeline callback, fires before MaybeFinish().
          auto send = [this, portion, delivered, serve_start] {
            if (serve_from_disk_) {
              TraceChunkSpan(portion.src_machine, "serve", -1, "serve-read", "disk",
                             serve_start);
            }
            const SimTime flow_start = executor_->sim_->now();
            executor_->cluster_->fabric().StartFlow(
                portion.src_machine, assignment_.machine, portion.bytes,
                // mono_lint: allow(escaping-capture) -- pipeline callback, fires before MaybeFinish().
                [this, delivered, flow_start] {
                  TraceChunkSpan(assignment_.machine, "net-in", -1, "shuffle-fetch",
                                 "network", flow_start);
                  delivered();
                });
          };
          if (serve_from_disk_) {
            executor_->ServeRead(portion.src_machine, portion.bytes, std::move(send));
          } else {
            send();
          }
        });
  }
}

void SparkTaskSim::OnChunkDelivered(Bytes bytes) {
  delivered_bytes_ += static_cast<double>(bytes.count());
  buffered_ += bytes;
  executor_->AddBuffered(assignment_.machine, bytes);
  Pump();
}

void SparkTaskSim::AdvanceCompute() {
  if (compute_busy_ || chunks_computed_ >= total_chunks_) {
    return;
  }
  // Backpressure: the writer buffer is bounded, so compute stalls if writing falls
  // too far behind (e.g. the buffer cache is throttling).
  const int write_backlog = chunks_computed_ - chunks_written_;
  if (output_io_ && write_backlog > kReadaheadChunks) {
    return;
  }
  if (chunks_ready() <= chunks_computed_) {
    return;
  }
  compute_busy_ = true;
  const SimTime compute_start = executor_->sim_->now();
  executor_->cluster_->machine(assignment_.machine)
      .RunCompute(chunk_cpu_seconds_ * executor_->ChunkCpuFactor(),
                  [this, compute_start] {
        // Span covers submission to completion, so CPU-pool contention (which
        // Spark cannot separate from compute) is inside it.
        TraceChunkSpan(assignment_.machine, "compute", -1, "chunk-compute", "cpu",
                       compute_start);
        compute_busy_ = false;
        ++chunks_computed_;
        if (has_input_io_) {
          // A chunk releases its whole-byte share of the input; the last one
          // releases everything delivered, since shuffle portions arrive whole
          // and need not split into equal whole-byte chunks.
          const Bytes release = chunks_computed_ == total_chunks_
                                    ? buffered_
                                    : Bytes(static_cast<int64_t>(chunk_input_bytes_));
          buffered_ -= release;
          executor_->RemoveBuffered(assignment_.machine, release);
        }
        Pump();
      });
}

void SparkTaskSim::AdvanceWriter() {
  if (!output_io_) {
    chunks_written_ = chunks_computed_;
    return;
  }
  if (writer_busy_ || chunks_written_ >= chunks_computed_) {
    return;
  }
  writer_busy_ = true;
  const Bytes bytes = Bytes(static_cast<int64_t>(chunk_write_bytes_));
  const int disk = executor_->PickWriteDisk(assignment_.machine);
  const SimTime write_start = executor_->sim_->now();
  auto done = [this, write_start] {
    // Category "cache", not "disk": the write completes into the buffer cache
    // at memory speed; the disk work appears later as an untagged flush span.
    TraceChunkSpan(assignment_.machine, "write", -1, "chunk-write", "cache", write_start);
    writer_busy_ = false;
    ++chunks_written_;
    Pump();
  };
  MachineSim& machine = executor_->cluster_->machine(assignment_.machine);
  if (executor_->config().write_through) {
    // Forced durability still flows through the cache's flusher so writes stay
    // elevator-batched; the task just can't proceed until its bytes are on disk.
    machine.buffer_cache().WriteSync(disk, bytes, std::move(done));
  } else {
    machine.buffer_cache().Write(disk, bytes, std::move(done));
  }
}

void SparkTaskSim::MaybeFinish() {
  if (finished_) {
    return;
  }
  const bool compute_done = chunks_computed_ == total_chunks_;
  const bool writes_done = !output_io_ || chunks_written_ == total_chunks_;
  if (compute_done && writes_done) {
    finished_ = true;
    executor_->OnTaskComplete(this);
  }
}

}  // namespace monosim
