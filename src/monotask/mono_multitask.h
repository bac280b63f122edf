// MonoMultitaskSim: one multitask decomposed into its monotask DAG (§3.2, Fig 4).
//
// The DAG for a map-like multitask:
//
//   disk-read(input block) -> compute -> disk-write(shuffle | output)
//
// and for a reduce-like multitask:
//
//   { per remote machine: request -> serve disk-read (remote) -> network flow }  --+
//   { local shuffle portion: disk-read                                        }  --+-> compute -> disk-write
//
// This class plays the role of the paper's Local DAG Scheduler for its multitask: it
// submits each monotask to the right per-resource scheduler only when the monotask's
// dependencies have completed, and records each finished monotask once (Complete),
// deriving the stage's metrics, the monotask log, the trace and the telemetry from
// that one record.
#ifndef MONOTASKS_SRC_MONOTASK_MONO_MULTITASK_H_
#define MONOTASKS_SRC_MONOTASK_MONO_MULTITASK_H_

#include "src/framework/executor.h"
#include "src/framework/monotask_log.h"

namespace monosim {

class MonotasksExecutorSim;

class MonoMultitaskSim final : public MultitaskSim {
 public:
  // Deliberately NOT MONO_SIM_OWNED: the executor destroys the multitask when
  // it completes, mid-run, so a `this` capture scheduled from here may only
  // reach APIs whose callbacks are guaranteed to fire before Finish() runs.
  MonoMultitaskSim(MonotasksExecutorSim* executor, TaskAssignment assignment,
                   uint64_t dispatch_id);

 private:
  // Buffers the input and enqueues the input-phase monotasks.
  void Run() override;
  void StartInputPhase();
  void OnInputPieceDone();
  void StartComputePhase();
  void StartWritePhase();
  void Finish();

  // The one call each completion site makes: a monotask of `phase` finished now
  // on `machine` (on disk `disk` for disk monotasks) after `wait` in its
  // scheduler's queue and `service` on `resource`, moving `bytes`. Builds its
  // MonotaskRecord and derives every per-monotask view from it: the stage's
  // MonotaskTimes (with the per-machine disk split), the MonotaskLog, the trace
  // span and the mono.{cpu,disk} latency histograms. A network flow passes its
  // `flow_start` as the span's start; other spans start at dispatch.
  void Complete(MonoResource resource, const char* phase, int machine, int disk,
                monoutil::SimTime service, monoutil::SimTime wait,
                monoutil::Bytes bytes, monoutil::SimTime flow_start = {});

  // Records the receiver-admission wait of this multitask's fetch set (or
  // remote input block) into the stage's MonotaskTimes and the
  // mono.net.acquire_wait_seconds histogram.
  void RecordAdmissionWait(monoutil::SimTime wait);

  MonotasksExecutorSim* executor_;
  int pending_input_pieces_ = 0;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_MONOTASK_MONO_MULTITASK_H_
