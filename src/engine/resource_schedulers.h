// Threaded per-resource scheduler for the execution engine (§3.3, real threads).
//
// A scheduler owns exactly as many worker threads as monotasks that may use its
// resource concurrently — one per core for the CPU scheduler, the outstanding
// count per disk, and the receiver-side multitask limit for the network — and
// queues everything else under the shared PhaseQueue policy
// (src/common/phase_queue.h): one FIFO for CPU and network, one per DiskPhase
// served round-robin for a disk. Completion callbacks run on the scheduler
// thread that executed the monotask; callers (the LocalDagScheduler) must be
// thread-safe.
#ifndef MONOTASKS_SRC_ENGINE_RESOURCE_SCHEDULERS_H_
#define MONOTASKS_SRC_ENGINE_RESOURCE_SCHEDULERS_H_

#include <functional>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/phase_queue.h"
#include "src/common/thread_annotations.h"
#include "src/engine/monotask.h"

namespace monotrace {
class LatencyHistogram;
}  // namespace monotrace

namespace monotasks {

// Fires when a monotask finishes running; receives the task and its service time.
using CompletionCallback = std::function<void(Monotask*, double service_seconds)>;

class ResourceScheduler {
 public:
  // Runs `resource` monotasks on `threads` threads: at most `threads` at once.
  ResourceScheduler(ResourceType resource, int threads, CompletionCallback on_complete);
  ~ResourceScheduler();

  ResourceScheduler(const ResourceScheduler&) = delete;
  ResourceScheduler& operator=(const ResourceScheduler&) = delete;

  // Queues `task`; disk monotasks go to the queue of task->disk_phase.
  void Submit(Monotask* task) EXCLUDES(mutex_);

  // Stops and joins the worker threads; idempotent, but must only be called by
  // the owning thread. The destructor calls it; Worker::Shutdown calls it
  // earlier so every scheduler's threads are joined before any scheduler is
  // destroyed (a completion callback on one scheduler's thread may still be
  // inside Submit()/notify on another).
  void Shutdown() EXCLUDES(mutex_);

 private:
  void WorkerLoop();

  const ResourceType resource_;
  CompletionCallback on_complete_;
  // engine.{cpu,disk,net}.{queue_wait,service}_seconds. For the network the
  // wait includes admission time, the engine analogue of
  // mono.net.acquire_wait_seconds.
  monotrace::LatencyHistogram* wait_hist_;
  monotrace::LatencyHistogram* service_hist_;
  monoutil::Mutex mutex_;
  monoutil::CondVar cv_;
  monoutil::PhaseQueue<Monotask*> queue_ GUARDED_BY(mutex_);
  bool shutdown_ GUARDED_BY(mutex_) = false;
  // Immutable after construction (joined in Shutdown only).
  std::vector<std::thread> threads_;
};

}  // namespace monotasks

#endif  // MONOTASKS_SRC_ENGINE_RESOURCE_SCHEDULERS_H_
