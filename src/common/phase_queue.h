// The queueing policy every per-resource monotask scheduler shares (§3.3).
//
// A scheduler keeps one FIFO per DAG phase and serves the phases round-robin,
// resuming after the last phase served, so a backlog in one phase (say, disk
// writes) cannot starve another (the reads that feed the CPU) — the convoy
// effect §3.3 "Queueing monotasks" describes. With a single phase the policy
// is a plain FIFO, which is what the CPU and network schedulers use.
//
// Pure policy: no clock, no threads, no callbacks. The simulator drives it
// from events (src/monotask) and the threaded engine under its scheduler
// mutex (src/engine).
#ifndef MONOTASKS_SRC_COMMON_PHASE_QUEUE_H_
#define MONOTASKS_SRC_COMMON_PHASE_QUEUE_H_

#include <deque>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace monoutil {

// DAG phase a disk monotask belongs to; disk schedulers keep one queue each.
enum class DiskPhase {
  kRead = 0,   // Reading input (DFS block or local shuffle data).
  kWrite = 1,  // Writing shuffle or output data.
  kServe = 2,  // Reading shuffle data on behalf of a remote reduce multitask.
};
inline constexpr int kNumDiskPhases = 3;

template <typename T>
class PhaseQueue {
 public:
  explicit PhaseQueue(int phases) : queues_(static_cast<size_t>(phases)) {
    MONO_CHECK(phases >= 1);
  }

  void Push(int phase, T item) {
    queues_[static_cast<size_t>(phase)].push_back(std::move(item));
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  int size() const { return size_; }
  int size(int phase) const {
    return static_cast<int>(queues_[static_cast<size_t>(phase)].size());
  }

  // Removes and returns the head of the first non-empty phase at or after the
  // cursor; the rotation then resumes after the phase served. Requires !empty().
  T Pop() {
    MONO_CHECK(size_ > 0);
    const int phases = static_cast<int>(queues_.size());
    int phase = cursor_;
    while (queues_[static_cast<size_t>(phase)].empty()) {
      phase = (phase + 1) % phases;
    }
    cursor_ = (phase + 1) % phases;
    std::deque<T>& queue = queues_[static_cast<size_t>(phase)];
    T item = std::move(queue.front());
    queue.pop_front();
    --size_;
    return item;
  }

 private:
  std::vector<std::deque<T>> queues_;
  int size_ = 0;
  int cursor_ = 0;  // Phase the rotation tries next.
};

}  // namespace monoutil

#endif  // MONOTASKS_SRC_COMMON_PHASE_QUEUE_H_
