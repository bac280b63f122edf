#include "src/framework/task_pool.h"

#include <algorithm>

#include "src/common/check.h"

namespace monosim {

void TaskPool::AddStage(StageExecution* stage) {
  MONO_CHECK(stage != nullptr);
  stages_.push_back(stage);
}

void TaskPool::RemoveStage(StageExecution* stage) {
  auto it = std::find(stages_.begin(), stages_.end(), stage);
  MONO_CHECK_MSG(it != stages_.end(), "stage not registered");
  const size_t index = static_cast<size_t>(it - stages_.begin());
  stages_.erase(it);
  if (cursor_ > index) {
    --cursor_;
  }
  if (!stages_.empty()) {
    cursor_ %= stages_.size();
  } else {
    cursor_ = 0;
  }
}

std::optional<TaskAssignment> TaskPool::TakeTask(int machine) {
  // Executors pull work here, round-robin over the active stages.
  for (size_t attempt = 0; attempt < stages_.size(); ++attempt) {
    const size_t index = (cursor_ + attempt) % stages_.size();
    auto task = stages_[index]->TakeTask(machine);
    if (task.has_value()) {
      cursor_ = (index + 1) % stages_.size();
      return task;
    }
  }
  return std::nullopt;
}

bool TaskPool::HasWork() const {
  for (const StageExecution* stage : stages_) {
    if (stage->unassigned_tasks() > 0) {
      return true;
    }
  }
  return false;
}

}  // namespace monosim
