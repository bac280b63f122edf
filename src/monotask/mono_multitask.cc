#include "src/monotask/mono_multitask.h"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/telemetry.h"
#include "src/common/tracing/tracer.h"
#include "src/framework/shuffle_layout.h"
#include "src/framework/stage_execution.h"
#include "src/monotask/mono_executor.h"

namespace monosim {

using monoutil::Bytes;

namespace {

// A resource's mono.<resource>.{service,queue_wait}_seconds pair.
struct LatencyHistograms {
  monotrace::LatencyHistogram* service;
  monotrace::LatencyHistogram* wait;

  explicit LatencyHistograms(const std::string& prefix)
      : service(monotrace::MetricsRegistry::Global().Histogram(prefix +
                                                               ".service_seconds")),
        wait(monotrace::MetricsRegistry::Global().Histogram(prefix +
                                                            ".queue_wait_seconds")) {}
  void Add(SimTime service_time, SimTime wait_time) const {
    service->Add(service_time.seconds());
    wait->Add(wait_time.seconds());
  }
};

}  // namespace

MonoMultitaskSim::MonoMultitaskSim(MonotasksExecutorSim* executor,
                                   TaskAssignment assignment, uint64_t dispatch_id)
    : MultitaskSim(std::move(assignment), dispatch_id, executor->sim_->now()),
      executor_(executor) {}

void MonoMultitaskSim::Complete(MonoResource resource, const char* phase, int machine,
                                int disk, SimTime service, SimTime wait, Bytes bytes,
                                SimTime flow_start) {
  StageResult& stage = assignment_.stage->result();
  const SimTime done = executor_->sim_->now();
  const MonotaskRecord record{dispatch_id(),         stage.stage_index, machine, resource, phase,
                              done - service - wait, done - service,     done};

  MonotaskTimes& times = stage.monotask_times;
  switch (resource) {
    case MonoResource::kCpu:
      times.compute_seconds += service.seconds();
      times.compute_queue_wait_seconds += wait.seconds();
      times.compute_deser_seconds += assignment_.deser_cpu_seconds;
      times.compute_decompress_seconds += assignment_.decompress_cpu_seconds;
      ++times.compute_count;
      break;
    case MonoResource::kDisk:
      (std::strcmp(phase, "disk-write") == 0 ? times.disk_write_seconds
                                             : times.disk_read_seconds) +=
          service.seconds();
      times.disk_queue_wait_seconds += wait.seconds();
      ++times.disk_count;
      // Attributed to the machine whose disk did the work.
      times.disk_seconds_per_machine[static_cast<size_t>(machine)] += service.seconds();
      times.disk_bytes_per_machine[static_cast<size_t>(machine)] += bytes;
      break;
    case MonoResource::kNetwork:
      times.network_seconds += service.seconds();
      ++times.network_count;
      break;
  }

  if (MonotaskLog* log = executor_->monotask_log()) {
    log->Record(record);
  }

  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    const std::string lane = resource == MonoResource::kDisk  ? "disk" + std::to_string(disk)
                             : resource == MonoResource::kCpu ? "cpu"
                                                              : "net-in";
    const SimTime start = resource == MonoResource::kNetwork ? flow_start : record.dispatch;
    tracer->CompleteOnLane(executor_->TraceProcess(machine), lane, phase,
                           MonoResourceName(resource), start.seconds(), done.seconds(),
                           assignment_.stage->trace_label());
  }

  // Always-on per-resource latency decomposition (telemetry.h); flows have no
  // scheduler queue, their admission wait is RecordAdmissionWait's.
  if (monotrace::TelemetryEnabled()) {
    if (resource == MonoResource::kCpu) {
      static const LatencyHistograms cpu("mono.cpu");
      cpu.Add(service, wait);
    } else if (resource == MonoResource::kDisk) {
      static const LatencyHistograms disk_hist("mono.disk");
      disk_hist.Add(service, wait);
    }
  }
}

void MonoMultitaskSim::RecordAdmissionWait(SimTime wait) {
  assignment_.stage->result().monotask_times.network_acquire_wait_seconds +=
      wait.seconds();
  if (monotrace::TelemetryEnabled()) {
    static monotrace::LatencyHistogram* wait_hist =
        monotrace::MetricsRegistry::Global().Histogram("mono.net.acquire_wait_seconds");
    wait_hist->Add(wait.seconds());
  }
}

void MonoMultitaskSim::Run() {
  // The entire input is buffered in memory before compute starts (§3.5).
  executor_->AddBuffered(assignment_.machine, assignment_.input_bytes);
  StartInputPhase();
}

void MonoMultitaskSim::StartInputPhase() {
  StageExecution* stage = assignment_.stage;
  const StageSpec& spec = stage->spec();

  const bool has_input_io =
      (spec.input == InputSource::kDfs || spec.input == InputSource::kShuffle) &&
      assignment_.input_bytes > Bytes(0);
  if (!has_input_io) {
    StartComputePhase();
    return;
  }

  if (spec.input == InputSource::kDfs) {
    pending_input_pieces_ = 1;
    if (assignment_.input_local) {
      executor_->disk_scheduler(assignment_.machine, assignment_.input_disk)
          .EnqueueRead(DiskPhase::kRead, assignment_.input_bytes,
                       // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
                       [this](SimTime service, SimTime wait) {
                         Complete(MonoResource::kDisk, "disk-read", assignment_.machine,
                                  assignment_.input_disk, service, wait,
                                  assignment_.input_bytes);
                         OnInputPieceDone();
                       });
    } else {
      // Remote block: gated by the network scheduler like a one-portion fetch set.
      executor_->network_scheduler(assignment_.machine)
          // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
          .Acquire([this](SimTime acquire_wait) {
        RecordAdmissionWait(acquire_wait);
        // Value-captured below: the fabric belongs to the cluster and outlives
        // every flow; the spelled-out type keeps the pointee lintable.
        NetworkFabricSim* fabric = &executor_->cluster_->fabric();
        fabric->SendControl(
            assignment_.machine, assignment_.input_machine,
            // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
            [this, fabric] {
              executor_->disk_scheduler(assignment_.input_machine, assignment_.input_disk)
                  .EnqueueRead(
                      DiskPhase::kServe, assignment_.input_bytes,
                      // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
                      [this, fabric](SimTime service, SimTime wait) {
                        Complete(MonoResource::kDisk, "serve-read",
                                 assignment_.input_machine, assignment_.input_disk,
                                 service, wait, assignment_.input_bytes);
                        const SimTime flow_start = executor_->sim_->now();
                        fabric->StartFlow(assignment_.input_machine, assignment_.machine,
                                          assignment_.input_bytes,
                                          // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
                                          [this, flow_start] {
                                            Complete(MonoResource::kNetwork, "block-flow",
                                                     assignment_.machine, /*disk=*/-1,
                                                     executor_->sim_->now() - flow_start,
                                                     SimTime(), assignment_.input_bytes,
                                                     flow_start);
                                            executor_->network_scheduler(assignment_.machine)
                                                .Release();
                                            OnInputPieceDone();
                                          });
                      });
            });
      });
    }
    return;
  }

  // Shuffle input: local portion via the disk scheduler, remote portions as one
  // receiver-admitted fetch set.
  const bool serve_from_disk = !stage->prev()->spec().shuffle_to_memory;
  std::vector<ShufflePortion> remote;
  Bytes local_bytes;
  for (const ShufflePortion& portion : ComputeShufflePortions(assignment_)) {
    if (portion.src_machine == assignment_.machine) {
      local_bytes += portion.bytes;
    } else {
      remote.push_back(portion);
    }
  }
  auto& usage = stage->result().usage;
  pending_input_pieces_ = (local_bytes > Bytes(0) ? 1 : 0) + static_cast<int>(remote.size());
  if (pending_input_pieces_ == 0) {
    StartComputePhase();
    return;
  }

  if (local_bytes > Bytes(0)) {
    if (serve_from_disk) {
      usage.disk_read_bytes += local_bytes;
      const int disk = executor_->PickServeDisk(assignment_.machine);
      executor_->disk_scheduler(assignment_.machine, disk)
          .EnqueueRead(DiskPhase::kRead, local_bytes,
                       // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
                       [this, local_bytes, disk](SimTime service, SimTime wait) {
            Complete(MonoResource::kDisk, "shuffle-read", assignment_.machine, disk,
                     service, wait, local_bytes);
            OnInputPieceDone();
          });
    } else {
      // mono_lint: allow(escaping-capture) -- zero-delay self-schedule, fires before Finish().
      executor_->sim_->ScheduleAfter(SimTime(), [this] { OnInputPieceDone(); });
    }
  }

  if (!remote.empty()) {
    for (const ShufflePortion& portion : remote) {
      usage.network_bytes += portion.bytes;
      if (serve_from_disk) {
        usage.disk_read_bytes += portion.bytes;
      }
    }
    // One network slot covers the whole fetch set: all of this multitask's requests
    // go out together, so its data arrives before later multitasks' data (§3.3).
    executor_->network_scheduler(assignment_.machine)
        // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
        .Acquire([this, remote = std::move(remote),
                  serve_from_disk](SimTime acquire_wait) {
          RecordAdmissionWait(acquire_wait);
          auto remaining = std::make_shared<int>(static_cast<int>(remote.size()));
          for (const ShufflePortion& portion : remote) {
            // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
            auto piece_done = [this, remaining] {
              if (--*remaining == 0) {
                executor_->network_scheduler(assignment_.machine).Release();
              }
              OnInputPieceDone();
            };
            NetworkFabricSim* fabric = &executor_->cluster_->fabric();
            fabric->SendControl(
                assignment_.machine, portion.src_machine,
                // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
                [this, portion, serve_from_disk, piece_done, fabric] {
                  // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
                  auto send_back = [this, portion, piece_done, fabric] {
                    const SimTime flow_start = executor_->sim_->now();
                    fabric->StartFlow(portion.src_machine, assignment_.machine,
                                     portion.bytes,
                                     // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
                                     [piece_done, flow_start, bytes = portion.bytes,
                                      this] {
                                       Complete(MonoResource::kNetwork, "shuffle-fetch",
                                                assignment_.machine, /*disk=*/-1,
                                                executor_->sim_->now() - flow_start,
                                                SimTime(), bytes, flow_start);
                                       piece_done();
                                     });
                  };
                  if (serve_from_disk) {
                    const int disk = executor_->PickServeDisk(portion.src_machine);
                    executor_->disk_scheduler(portion.src_machine, disk)
                        .EnqueueRead(DiskPhase::kServe, portion.bytes,
                                     // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
                                     [this, send_back, portion,
                                      disk](SimTime service, SimTime wait) {
                                       Complete(MonoResource::kDisk, "serve-read",
                                                portion.src_machine, disk, service, wait,
                                                portion.bytes);
                                       send_back();
                                     });
                  } else {
                    send_back();
                  }
                });
          }
        });
  }
}

void MonoMultitaskSim::OnInputPieceDone() {
  MONO_CHECK(pending_input_pieces_ > 0);
  if (--pending_input_pieces_ == 0) {
    StartComputePhase();
  }
}

void MonoMultitaskSim::StartComputePhase() {
  // Blocked-on-dependency: the compute monotask only became ready now, after
  // the whole input phase; everything since dispatch was spent waiting on the
  // DAG rather than in any resource queue.
  if (monotrace::TelemetryEnabled()) {
    static monotrace::LatencyHistogram* dep_blocked =
        monotrace::MetricsRegistry::Global().Histogram(
            "mono.compute.dep_blocked_seconds");
    dep_blocked->Add((executor_->sim_->now() - start_time()).seconds());
  }
  executor_->cpu_scheduler(assignment_.machine)
      // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
      .Enqueue(assignment_.cpu_seconds, [this](SimTime service, SimTime wait) {
        Complete(MonoResource::kCpu, "compute", assignment_.machine, /*disk=*/-1,
                 service, wait, Bytes());
        // Input buffers are released once compute has transformed them; the output
        // buffer exists until the write monotask retires it.
        executor_->RemoveBuffered(assignment_.machine, assignment_.input_bytes);
        executor_->AddBuffered(assignment_.machine, write_total_);
        StartWritePhase();
      });
}

void MonoMultitaskSim::StartWritePhase() {
  if (!output_io_) {
    executor_->RemoveBuffered(assignment_.machine, write_total_);
    Finish();
    return;
  }
  const int disk = executor_->PickWriteDisk(assignment_.machine);
  executor_->disk_scheduler(assignment_.machine, disk)
      // mono_lint: allow(escaping-capture) -- DAG callback, fires before Finish().
      .EnqueueWrite(write_total_, [this, disk](SimTime service, SimTime wait) {
        Complete(MonoResource::kDisk, "disk-write", assignment_.machine, disk, service,
                 wait, write_total_);
        executor_->RemoveBuffered(assignment_.machine, write_total_);
        Finish();
      });
}

void MonoMultitaskSim::Finish() {
  executor_->OnTaskComplete(this);
}

}  // namespace monosim
