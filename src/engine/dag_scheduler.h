// LocalDagScheduler: the worker-side top-level scheduler of §3.3.
//
// Tracks dependencies among the monotasks of every multitask assigned to this worker
// and submits a monotask to its per-resource scheduler only when all of its
// dependencies have completed, so monotasks never block holding a resource.
// Completion callbacks arrive on resource-scheduler threads; all state is guarded by
// one mutex.
#ifndef MONOTASKS_SRC_ENGINE_DAG_SCHEDULER_H_
#define MONOTASKS_SRC_ENGINE_DAG_SCHEDULER_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/engine/monotask.h"

namespace monotasks {

class Worker;

class LocalDagScheduler {
 public:
  // `submit` routes a ready monotask to the right per-resource scheduler.
  explicit LocalDagScheduler(std::function<void(Monotask*)> submit);

  LocalDagScheduler(const LocalDagScheduler&) = delete;
  LocalDagScheduler& operator=(const LocalDagScheduler&) = delete;

  // Registers a DAG: `tasks` with `edges` as (from, to) dependency pairs (to runs
  // after from). `on_all_done` fires (on a resource thread) when every task in this
  // DAG has completed. Takes ownership of the monotasks.
  void SubmitDag(std::vector<std::unique_ptr<Monotask>> tasks,
                 const std::vector<std::pair<Monotask*, Monotask*>>& edges,
                 std::function<void()> on_all_done);

  // Called by the worker when a resource scheduler reports completion.
  void OnMonotaskComplete(Monotask* task) EXCLUDES(mutex_);

  // Monotasks registered but not yet completed (diagnostic).
  int pending() const EXCLUDES(mutex_);

 private:
  struct DagState {
    int remaining = 0;
    std::function<void()> on_all_done;
    std::vector<std::unique_ptr<Monotask>> tasks;
  };
  struct TaskState {
    int unmet_dependencies = 0;
    std::vector<Monotask*> dependents;
    DagState* dag = nullptr;
  };

  std::function<void(Monotask*)> submit_;
  mutable monoutil::Mutex mutex_;
  // Keyed by the monotask's stable id, not its address: no scheduling decision
  // may depend on where the heap placed a task (determinism contract, DESIGN §10).
  std::unordered_map<Monotask::Id, TaskState> task_states_ GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<DagState>> dags_ GUARDED_BY(mutex_);
  int pending_ GUARDED_BY(mutex_) = 0;
};

}  // namespace monotasks

#endif  // MONOTASKS_SRC_ENGINE_DAG_SCHEDULER_H_
