#include "src/framework/stage_execution.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"

namespace monosim {

using monoutil::Bytes;
using monoutil::SimTime;

StageExecution::StageExecution(const JobSpec& job, int stage_index, int num_machines,
                               const DfsSim* dfs, const StageExecution* prev,
                               monoutil::Rng* rng)
    : spec_(job.stages[static_cast<size_t>(stage_index)]),
      prev_(prev),
      num_machines_(num_machines),
      local_queue_(static_cast<size_t>(num_machines)),
      shuffle_on_machine_(static_cast<size_t>(num_machines), Bytes()) {
  MONO_CHECK(num_machines >= 1);
  MONO_CHECK(rng != nullptr);
  result_.name = spec_.name;
  result_.stage_index = stage_index;
  result_.num_tasks = spec_.num_tasks;
  result_.monotask_times.disk_seconds_per_machine.assign(
      static_cast<size_t>(num_machines), 0.0);
  result_.monotask_times.disk_bytes_per_machine.assign(
      static_cast<size_t>(num_machines), Bytes());

  const int n = spec_.num_tasks;
  tasks_.resize(static_cast<size_t>(n));
  taken_.assign(static_cast<size_t>(n), false);
  task_start_.assign(static_cast<size_t>(n), SimTime());

  // Draw correlated jitter factors and normalize them to mean 1 so stage totals are
  // exactly as specified regardless of the draw.
  std::vector<double> factor(static_cast<size_t>(n));
  double factor_sum = 0.0;
  for (auto& f : factor) {
    f = rng->Uniform(1.0 - spec_.task_size_jitter, 1.0 + spec_.task_size_jitter);
    factor_sum += f;
  }
  for (auto& f : factor) {
    f *= static_cast<double>(n) / factor_sum;
  }

  // Total input bytes: for DFS input, from the file; otherwise from the spec.
  Bytes total_input = spec_.input_bytes;
  const DfsFile* file = nullptr;
  if (spec_.input == InputSource::kDfs) {
    MONO_CHECK(dfs != nullptr);
    file = &dfs->GetFile(spec_.input_file);
    MONO_CHECK_MSG(static_cast<int>(file->blocks.size()) == n,
                   "DFS input stage must have one task per block");
    total_input = file->total_bytes();
  }
  if (spec_.input == InputSource::kShuffle) {
    MONO_CHECK(prev_ != nullptr);
  }

  // Cumulative-rounding partition: task t's share of a byte total is the difference
  // of two rounded prefix sums, so the per-task amounts always sum to the total
  // exactly, whatever the jitter factors are.
  std::vector<double> prefix(static_cast<size_t>(n) + 1, 0.0);
  for (int t = 0; t < n; ++t) {
    prefix[static_cast<size_t>(t) + 1] =
        prefix[static_cast<size_t>(t)] + factor[static_cast<size_t>(t)];
  }
  auto share = [&](Bytes total, int t) -> Bytes {
    const double denom = prefix[static_cast<size_t>(n)];
    const auto lo = Bytes(static_cast<int64_t>(static_cast<double>(total.count()) *
                                               prefix[static_cast<size_t>(t)] / denom));
    const auto hi = Bytes(static_cast<int64_t>(static_cast<double>(total.count()) *
                                               prefix[static_cast<size_t>(t) + 1] / denom));
    return hi - lo;
  };

  const double total_cpu = spec_.cpu_seconds_per_task * static_cast<double>(n);
  for (int t = 0; t < n; ++t) {
    TaskParams& params = tasks_[static_cast<size_t>(t)];
    const double f = factor[static_cast<size_t>(t)];
    if (file != nullptr) {
      // Block sizes are fixed by the DFS; jitter applies to compute/output only.
      const DfsBlock& block = file->blocks[static_cast<size_t>(t)];
      params.input_bytes = block.size;
      params.replicas = block.replicas;
    } else {
      params.input_bytes = share(total_input, t);
    }
    params.cpu_seconds = total_cpu * f / static_cast<double>(n);
    params.deser_cpu_seconds = params.cpu_seconds * spec_.deser_fraction;
    params.decompress_cpu_seconds = params.cpu_seconds * spec_.decompress_fraction;
    params.shuffle_write_bytes = share(spec_.shuffle_bytes, t);
    params.output_bytes = share(spec_.output_bytes, t);
    if (!params.replicas.empty()) {
      // The task is local to every machine holding a replica of its block.
      for (const auto& replica : params.replicas) {
        local_queue_[static_cast<size_t>(replica.machine)].push_back(t);
      }
    } else {
      any_queue_.push_back(t);
    }
  }
  unassigned_ = n;

  // Ground-truth usage totals (independent of which executor runs the stage).
  result_.usage.cpu_seconds = total_cpu;
  result_.usage.deser_cpu_seconds = total_cpu * spec_.deser_fraction;
  result_.usage.decompress_cpu_seconds = total_cpu * spec_.decompress_fraction;
}

std::optional<TaskAssignment> StageExecution::TakeTask(int machine) {
  // Called by TaskPool::TakeTask, and by executors that pull from one stage
  // directly.
  MONO_CHECK(machine >= 0 && machine < num_machines_);
  if (unassigned_ == 0) {
    return std::nullopt;
  }
  auto pop_untaken = [this](std::deque<int>& queue) -> int {
    while (!queue.empty()) {
      const int t = queue.front();
      queue.pop_front();
      if (!taken_[static_cast<size_t>(t)]) {
        return t;
      }
    }
    return -1;
  };

  // Prefer a task whose input block lives on this machine.
  int t = pop_untaken(local_queue_[static_cast<size_t>(machine)]);
  if (t < 0) {
    t = pop_untaken(any_queue_);
  }
  if (t < 0) {
    // Steal a non-local task from the machine with the most pending local work.
    size_t best = 0;
    size_t best_size = 0;
    for (size_t m = 0; m < local_queue_.size(); ++m) {
      if (local_queue_[m].size() > best_size) {
        best = m;
        best_size = local_queue_[m].size();
      }
    }
    if (best_size > 0) {
      t = pop_untaken(local_queue_[best]);
    }
  }
  if (t < 0) {
    return std::nullopt;
  }
  taken_[static_cast<size_t>(t)] = true;
  --unassigned_;
  return MakeAssignment(t, machine);
}

TaskAssignment StageExecution::MakeAssignment(int task_index, int machine) const {
  const TaskParams& params = tasks_[static_cast<size_t>(task_index)];
  TaskAssignment assignment;
  assignment.stage = const_cast<StageExecution*>(this);
  assignment.task_index = task_index;
  assignment.machine = machine;
  // Read from the local replica when this machine holds one; otherwise remotely
  // from the primary.
  assignment.input_machine = machine;
  assignment.input_disk = 0;
  if (!params.replicas.empty()) {
    assignment.input_machine = params.replicas[0].machine;
    assignment.input_disk = params.replicas[0].disk;
    for (const auto& replica : params.replicas) {
      if (replica.machine == machine) {
        assignment.input_machine = replica.machine;
        assignment.input_disk = replica.disk;
        break;
      }
    }
  }
  assignment.input_local = assignment.input_machine == machine;
  assignment.input_bytes = params.input_bytes;
  assignment.cpu_seconds = params.cpu_seconds;
  assignment.deser_cpu_seconds = params.deser_cpu_seconds;
  assignment.decompress_cpu_seconds = params.decompress_cpu_seconds;
  assignment.shuffle_write_bytes = params.shuffle_write_bytes;
  assignment.output_bytes = params.output_bytes;
  return assignment;
}

void StageExecution::Activate(SimTime now) {
  MONO_CHECK(!activated_);
  activated_ = true;
  result_.start = now;
}

void StageExecution::OnTaskStarted(int task_index, SimTime now) {
  // Executors report each task's start and finish here; the stage keeps the
  // timing and shuffle bookkeeping.
  task_start_[static_cast<size_t>(task_index)] = now;
}

void StageExecution::OnTaskFinished(int task_index, SimTime now) {
  MONO_CHECK(finished_ < spec_.num_tasks);
  result_.task_seconds +=
      (now - task_start_[static_cast<size_t>(task_index)]).seconds();
  ++finished_;
  if (finished_ == spec_.num_tasks) {
    result_.end = now;
    if (on_complete_) {
      on_complete_();
    }
  }
}

void StageExecution::RecordShuffleWrite(int machine, Bytes bytes) {
  MONO_CHECK(machine >= 0 && machine < num_machines_);
  shuffle_on_machine_[static_cast<size_t>(machine)] += bytes;
}

}  // namespace monosim
