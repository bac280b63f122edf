// TaskPool: the set of currently-runnable stages across all submitted jobs.
//
// Executors pull tasks from the pool when a machine has spare capacity. When several
// jobs are runnable at once (Fig 16 runs two sorts concurrently), the pool hands out
// tasks round-robin across stages so the jobs share the cluster.
#ifndef MONOTASKS_SRC_FRAMEWORK_TASK_POOL_H_
#define MONOTASKS_SRC_FRAMEWORK_TASK_POOL_H_

#include <optional>
#include <vector>

#include "src/framework/stage_execution.h"
#include "src/framework/task.h"

namespace monosim {

class TaskPool {
 public:
  void AddStage(StageExecution* stage);
  void RemoveStage(StageExecution* stage);

  // Takes one task runnable on `machine`, rotating across registered stages.
  std::optional<TaskAssignment> TakeTask(int machine);

  // True if any registered stage still has unassigned tasks.
  bool HasWork() const;

 private:
  std::vector<StageExecution*> stages_;
  size_t cursor_ = 0;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_FRAMEWORK_TASK_POOL_H_
