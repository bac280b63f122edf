// Per-resource monotask schedulers (§3.3 of the paper).
//
// Each worker machine has one scheduler per resource. Schedulers run the minimum
// number of monotasks needed to keep the resource busy and queue the rest, which makes
// contention visible as queue length and lets every monotask use the device at full
// efficiency:
//
//   * SlotSchedulerSim     — a fixed number of slots on one device: one compute
//                            monotask per core, or one monotask per HDD (several
//                            for flash) with round-robin across DAG phases (read /
//                            write / shuffle-serve) via the shared PhaseQueue policy
//                            (src/common/phase_queue.h).
//   * NetworkSchedulerSim  — receiver-side admission: fetch sets from at most N
//                            multitasks outstanding (N = 4 in the paper), each
//                            waiter's admission wait read off the simulation clock.
//
// Every completion callback receives the monotask's *service* time (queueing
// excluded) and its *queue wait* (ready-to-dispatch): this is the built-in
// instrumentation that feeds the §6 model and the always-on telemetry layer.
// The schedulers only measure; the executor's one completion record per
// monotask (MonoMultitaskSim::Complete) turns both segments into the stage
// metrics, the monotask log, the trace and the latency histograms.
#ifndef MONOTASKS_SRC_MONOTASK_RESOURCE_SCHEDULERS_H_
#define MONOTASKS_SRC_MONOTASK_RESOURCE_SCHEDULERS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "src/cluster/disk.h"
#include "src/cluster/machine.h"
#include "src/common/phase_queue.h"
#include "src/simcore/rate_trace.h"
#include "src/simcore/simulation.h"

namespace monosim {

using monoutil::DiskPhase;

// Called when a monotask finishes; `service` is time spent actually using the
// resource (dispatch to completion), `queue_wait` the time it sat in the
// scheduler's queue beforehand (enqueue to dispatch).
using MonotaskDone = std::function<void(SimTime service, SimTime queue_wait)>;

// §3.1: "this design makes resource contention visible as the queue length for
// each resource". Records a scheduler's queue length as a RateTrace step
// function (once enabled) and as a counter track in the event tracer (once
// named), the latter rendered in Perfetto.
class QueueLengthTrace {
 public:
  void Enable(SimTime now) {
    trace_.Record(now, 0.0);
    on_ = true;
  }
  void SetSeries(std::string process, std::string series) {
    process_ = std::move(process);
    series_ = std::move(series);
  }
  void Record(SimTime now, int length);
  const RateTrace& trace() const { return trace_; }

 private:
  bool on_ = false;
  RateTrace trace_;
  std::string process_;
  std::string series_;
};

// A fixed number of slots on one device, each running one monotask at a time:
// the CPU scheduler (slots = cores) or a disk scheduler (slots = outstanding
// monotasks, one queue per DiskPhase).
class SlotSchedulerSim {
 public:
  // Per-machine schedulers are owned by the executor's worker state, which
  // outlives the simulation run; `this` captures into device completion
  // callbacks cannot dangle. Applies to both schedulers in this header.
  MONO_SIM_OWNED;

  // CPU scheduler: one slot per core of `machine`.
  SlotSchedulerSim(Simulation* sim, MachineSim* machine);
  // Disk scheduler: `slots` is 1 for HDDs; flash uses the configured outstanding
  // count. `fifo` disables the per-phase round-robin (ablation of §3.3's
  // queueing design): all monotasks share one FIFO queue.
  SlotSchedulerSim(Simulation* sim, DiskSim* disk, int slots, bool fifo = false);

  SlotSchedulerSim(const SlotSchedulerSim&) = delete;
  SlotSchedulerSim& operator=(const SlotSchedulerSim&) = delete;

  // Queues a compute monotask of `cpu_seconds` of single-threaded work (CPU
  // scheduler only).
  void Enqueue(double cpu_seconds, MonotaskDone done);
  // Queue disk monotasks (disk scheduler only).
  void EnqueueRead(DiskPhase phase, monoutil::Bytes bytes, MonotaskDone done);
  void EnqueueWrite(monoutil::Bytes bytes, MonotaskDone done);

  int running() const { return running_; }
  int queue_length() const { return queue_.size(); }
  // Queued monotasks in the write phase (used by load-aware write placement).
  int queued_writes() const { return queue_.size(static_cast<int>(DiskPhase::kWrite)); }
  int max_concurrency() const { return slots_; }

  void EnableQueueTrace() { queue_trace_.Enable(sim_->now()); }
  const RateTrace& queue_trace() const { return queue_trace_.trace(); }
  // Names the queue-length counter track this scheduler emits into the tracer.
  void SetTraceSeries(std::string process, std::string series) {
    queue_trace_.SetSeries(std::move(process), std::move(series));
  }

 private:
  enum class Op : uint8_t { kCompute, kRead, kWrite };
  struct Item {
    Op op;
    double cpu_seconds;     // kCompute: CPU work units, not a SimTime span.
    monoutil::Bytes bytes;  // kRead / kWrite.
    SimTime enqueued;
    MonotaskDone done;
  };
  // Queues `item` in phase queue `phase` and dispatches.
  void Push(int phase, Item item);
  void Dispatch();
  void RecordQueue() { queue_trace_.Record(sim_->now(), queue_.size()); }

  Simulation* sim_;
  MachineSim* machine_ = nullptr;  // CPU scheduler.
  DiskSim* disk_ = nullptr;        // Disk scheduler.
  int slots_;
  bool fifo_ = false;
  int running_ = 0;
  monoutil::PhaseQueue<Item> queue_;
  QueueLengthTrace queue_trace_;
};

// Receiver-side network admission control: at most `multitask_limit` multitasks may
// have their shuffle requests outstanding at once (§3.3 chose 4 to balance link
// utilization against pipelining with compute monotasks). A gate, not a slot
// scheduler: the granted multitask drives its own flows.
class NetworkSchedulerSim {
 public:
  MONO_SIM_OWNED;

  NetworkSchedulerSim(Simulation* sim, int multitask_limit);

  NetworkSchedulerSim(const NetworkSchedulerSim&) = delete;
  NetworkSchedulerSim& operator=(const NetworkSchedulerSim&) = delete;

  // Requests a fetch slot; `granted` runs (possibly immediately) when one is
  // free, receiving the time spent waiting for admission (zero when granted
  // immediately).
  void Acquire(std::function<void(SimTime wait)> granted);
  // Releases a slot previously granted; admits the next waiter.
  void Release();

  int active() const { return active_; }
  int queue_length() const { return static_cast<int>(waiting_.size()); }
  int max_concurrency() const { return limit_; }

  // See SlotSchedulerSim::SetTraceSeries.
  void SetTraceSeries(std::string process, std::string series) {
    queue_trace_.SetSeries(std::move(process), std::move(series));
  }

 private:
  struct Waiter {
    SimTime enqueued;
    std::function<void(SimTime)> granted;
  };
  void RecordQueue() {
    queue_trace_.Record(sim_->now(), static_cast<int>(waiting_.size()));
  }

  Simulation* sim_;
  int limit_;
  int active_ = 0;
  std::deque<Waiter> waiting_;
  QueueLengthTrace queue_trace_;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_MONOTASK_RESOURCE_SCHEDULERS_H_
