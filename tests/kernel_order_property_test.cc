// Kernel fire-order property test: random scripts run against the Simulation
// kernel and against a plain reference, and both must fire the same events in
// the same order.
//
// The reference is the specification of the kernel's ordering contract, kept
// as small as possible: a sorted set of (when, seq, id) with its own sequence
// counter, eager cancellation, and the documented epoch-end and RunUntil
// rules. Whatever data structure the kernel uses for its queue, its fire order
// must be the total order (when, seq) of this set.
//
// One Script drives both sides. It owns every random draw: the top-level
// operations come from the script's generator, and what a fired event or an
// epoch task does comes from a generator seeded by its id. So the two sides
// take the same actions exactly as long as they fire the same ids in the same
// order, and the first divergence shows in the logs. Scripts mix heavy time
// ties, schedules from inside callbacks (at now() too), cancels of pending,
// fired and recycled handles, AtEpochEnd, RunUntil to random deadlines, and
// cancel-heavy bursts large enough to make the kernel compact.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/simcore/simulation.h"

namespace monosim {
namespace {

// What a script needs from an event queue.
class Queue {
 public:
  virtual ~Queue() = default;
  virtual double Now() const = 0;
  virtual void Schedule(double when, int id) = 0;
  virtual void Cancel(int id) = 0;
  virtual void AtEpochEnd(int task) = 0;
  virtual bool Step() = 0;
  virtual void Run() = 0;
  virtual void RunUntil(double deadline) = 0;
  virtual uint64_t Fired() const = 0;
  virtual size_t Live() const = 0;
};

// How often each kind of action happened, so a script cannot silently stop
// exercising what it is meant to exercise.
struct Coverage {
  int schedules_at_now_in_callback = 0;
  int cancels_of_fired = 0;
  int cancels_of_pending = 0;
  int self_cancels_after_reschedule = 0;
  int epoch_tasks_run = 0;
  int run_untils = 0;
  int cancel_bursts = 0;
};

class Script {
 public:
  static constexpr int kMaxSpawned = 6000;
  static constexpr int kMaxEpochTasks = 800;
  static constexpr int kRounds = 300;
  // Larger than Simulation::kCompactionMinQueueSize, so a burst that cancels
  // most of itself leaves the kernel more tombstones than live entries.
  static constexpr int kBurst = 200;

  explicit Script(uint64_t seed) : seed_(seed) {}

  void Bind(Queue* queue) { queue_ = queue; }

  // Top-level script: random operations between runs, then a final drain.
  void Play() {
    monoutil::Rng rng(seed_);
    for (int round = 0; round < kRounds; ++round) {
      switch (rng.NextBelow(7)) {
        case 0: {
          const int count = 1 + static_cast<int>(rng.NextBelow(20));
          for (int i = 0; i < count; ++i) {
            ScheduleNew(rng);
          }
          break;
        }
        case 1: {
          const int count = 1 + static_cast<int>(rng.NextBelow(4));
          for (int i = 0; i < count; ++i) {
            CancelRandom(rng);
          }
          break;
        }
        case 2:
          RegisterEpochTask();
          break;
        case 3:
          ++coverage_.run_untils;
          queue_->RunUntil(queue_->Now() + 0.25 * static_cast<double>(rng.NextBelow(24)));
          break;
        case 4: {
          const int steps = 1 + static_cast<int>(rng.NextBelow(8));
          for (int i = 0; i < steps; ++i) {
            queue_->Step();
          }
          break;
        }
        case 5:
          CancelBurst(rng);
          break;
        default:
          ScheduleNew(rng);
          break;
      }
      live_trace_.push_back(queue_->Live());
    }
    queue_->Run();
  }

  // A fired event: log it, then act from the id's own generator.
  void Fire(int id) {
    log_.push_back(id);
    fired_[static_cast<size_t>(id)] = true;
    monoutil::Rng rng(seed_ * 1000003 + static_cast<uint64_t>(id));
    const int children = static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < children && spawned_ < kMaxSpawned; ++i) {
      ++spawned_;
      if (ScheduleNew(rng) == queue_->Now()) {
        ++coverage_.schedules_at_now_in_callback;
      }
    }
    if (rng.NextBelow(3) == 0) {
      CancelRandom(rng);
    }
    if (rng.NextBelow(3) == 0) {
      // This event's record was recycled before its callback ran, so the
      // children above may sit in it: the stale handle must not touch them.
      if (children > 0) {
        ++coverage_.self_cancels_after_reschedule;
      }
      queue_->Cancel(id);
    }
    if (rng.NextBelow(6) == 0) {
      RegisterEpochTask();
    }
  }

  // An epoch-end task: log it as -1 - task, then act from its own generator.
  void RunEpochTask(int task) {
    log_.push_back(-1 - task);
    ++coverage_.epoch_tasks_run;
    monoutil::Rng rng(~seed_ * 7919 + static_cast<uint64_t>(task));
    if (rng.NextBelow(2) == 0 && spawned_ < kMaxSpawned) {
      ++spawned_;
      ScheduleNew(rng);
    }
    if (rng.NextBelow(4) == 0) {
      CancelRandom(rng);
    }
    if (rng.NextBelow(5) == 0) {
      RegisterEpochTask();
    }
  }

  const std::vector<int>& log() const { return log_; }
  const std::vector<size_t>& live_trace() const { return live_trace_; }
  const Coverage& coverage() const { return coverage_; }

 private:
  // Mostly integer offsets, often zero: heavy ties at one timestamp.
  static double Delay(monoutil::Rng& rng) {
    const uint64_t pick = rng.NextBelow(10);
    if (pick < 3) {
      return 0.0;
    }
    if (pick < 8) {
      return static_cast<double>(1 + rng.NextBelow(3));
    }
    if (pick == 8) {
      return 0.5;
    }
    return 0.25 * static_cast<double>(rng.NextBelow(40));
  }

  double ScheduleNew(monoutil::Rng& rng) {
    const double when = queue_->Now() + Delay(rng);
    const int id = static_cast<int>(fired_.size());
    fired_.push_back(false);
    queue_->Schedule(when, id);
    return when;
  }

  void CancelRandom(monoutil::Rng& rng) {
    if (fired_.empty()) {
      return;
    }
    const int id = static_cast<int>(rng.NextBelow(fired_.size()));
    if (fired_[static_cast<size_t>(id)]) {
      ++coverage_.cancels_of_fired;
    } else {
      ++coverage_.cancels_of_pending;
    }
    queue_->Cancel(id);
  }

  void RegisterEpochTask() {
    if (epoch_tasks_ < kMaxEpochTasks) {
      queue_->AtEpochEnd(epoch_tasks_++);
    }
  }

  // Schedules a block of far-future events and cancels nine in ten of them,
  // then schedules one more so the kernel's compaction check runs.
  void CancelBurst(monoutil::Rng& rng) {
    ++coverage_.cancel_bursts;
    const int first = static_cast<int>(fired_.size());
    for (int i = 0; i < kBurst; ++i) {
      const double when = queue_->Now() + 100.0 + static_cast<double>(rng.NextBelow(50));
      fired_.push_back(false);
      queue_->Schedule(when, first + i);
    }
    for (int i = 0; i < kBurst; ++i) {
      if (rng.NextBelow(10) != 0) {
        queue_->Cancel(first + i);
      }
    }
    ScheduleNew(rng);
  }

  const uint64_t seed_;
  Queue* queue_ = nullptr;
  std::vector<int> log_;
  std::vector<bool> fired_;  // Indexed by event id.
  std::vector<size_t> live_trace_;
  int spawned_ = 0;
  int epoch_tasks_ = 0;
  Coverage coverage_;
};

// The kernel under test.
class KernelQueue : public Queue {
 public:
  explicit KernelQueue(Script* script) : script_(script) {}

  double Now() const override { return sim_.now().seconds(); }
  void Schedule(double when, int id) override {
    if (handles_.size() <= static_cast<size_t>(id)) {
      handles_.resize(static_cast<size_t>(id) + 1);
    }
    handles_[static_cast<size_t>(id)] =
        sim_.ScheduleAt(monoutil::Seconds(when), [this, id] { script_->Fire(id); }, "prop");
    // Right after a schedule the compaction check has run: the queue is small
    // or at most half tombstones.
    max_excess_ = std::max(
        max_excess_, sim_.queue_size() < Simulation::kCompactionMinQueueSize
                         ? 0
                         : static_cast<int64_t>(sim_.queue_size()) - 2 * static_cast<int64_t>(Live()));
  }
  void Cancel(int id) override { handles_[static_cast<size_t>(id)].Cancel(); }
  void AtEpochEnd(int task) override {
    sim_.AtEpochEnd([this, task] { script_->RunEpochTask(task); });
  }
  bool Step() override { return sim_.Step(); }
  void Run() override { sim_.Run(); }
  void RunUntil(double deadline) override { sim_.RunUntil(monoutil::Seconds(deadline)); }
  uint64_t Fired() const override { return sim_.fired_events(); }
  size_t Live() const override { return sim_.queue_size() - sim_.queued_tombstones(); }

  int64_t max_excess() const { return max_excess_; }
  size_t queue_size() const { return sim_.queue_size(); }

 private:
  Script* script_;
  Simulation sim_;
  std::vector<EventHandle> handles_;
  int64_t max_excess_ = 0;
};

// The reference: a sorted set with eager cancellation and the kernel's
// documented epoch and deadline rules, written for clarity only.
class ReferenceQueue : public Queue {
 public:
  explicit ReferenceQueue(Script* script) : script_(script) {}

  double Now() const override { return now_; }
  void Schedule(double when, int id) override {
    const Key key{when, seq_++, id};
    queue_.insert(key);
    pending_[id] = key;
  }
  void Cancel(int id) override {
    const auto it = pending_.find(id);
    if (it != pending_.end()) {
      queue_.erase(it->second);
      pending_.erase(it);
    }
  }
  void AtEpochEnd(int task) override { epoch_tasks_.push_back(task); }

  bool Step() override {
    for (;;) {
      if (!epoch_tasks_.empty() && NoEventAtNow()) {
        RunEpochTasks();
        continue;
      }
      if (queue_.empty()) {
        return false;
      }
      const Key front = *queue_.begin();
      queue_.erase(queue_.begin());
      const int id = std::get<2>(front);
      pending_.erase(id);
      now_ = std::get<0>(front);
      ++fired_;
      script_->Fire(id);
      while (!epoch_tasks_.empty() && NoEventAtNow()) {
        RunEpochTasks();
      }
      return true;
    }
  }
  void Run() override {
    while (Step()) {
    }
  }
  void RunUntil(double deadline) override {
    for (;;) {
      if (!epoch_tasks_.empty() && NoEventAtNow()) {
        RunEpochTasks();
        continue;
      }
      if (queue_.empty() || std::get<0>(*queue_.begin()) > deadline) {
        break;
      }
      Step();
    }
    now_ = deadline;
  }
  uint64_t Fired() const override { return fired_; }
  size_t Live() const override { return queue_.size(); }

 private:
  using Key = std::tuple<double, uint64_t, int>;  // (when, seq, id)

  bool NoEventAtNow() const { return queue_.empty() || std::get<0>(*queue_.begin()) > now_; }

  void RunEpochTasks() {
    std::vector<int> tasks;
    tasks.swap(epoch_tasks_);
    for (const int task : tasks) {
      script_->RunEpochTask(task);
    }
  }

  Script* script_;
  double now_ = 0.0;
  uint64_t seq_ = 0;
  uint64_t fired_ = 0;
  std::set<Key> queue_;
  std::map<int, Key> pending_;
  std::vector<int> epoch_tasks_;
};

class KernelOrderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelOrderPropertyTest, FiresInReferenceOrder) {
  Script kernel_script(GetParam());
  KernelQueue kernel(&kernel_script);
  kernel_script.Bind(&kernel);
  kernel_script.Play();

  Script reference_script(GetParam());
  ReferenceQueue reference(&reference_script);
  reference_script.Bind(&reference);
  reference_script.Play();

  const std::vector<int>& got = kernel_script.log();
  const std::vector<int>& want = reference_script.log();
  const auto mismatch = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  ASSERT_TRUE(mismatch.first == got.end() && mismatch.second == want.end())
      << "fire order diverges at entry " << (mismatch.first - got.begin()) << " of "
      << got.size() << " (kernel) / " << want.size() << " (reference)";
  EXPECT_EQ(kernel.Fired(), reference.Fired());
  EXPECT_EQ(kernel.Now(), reference.Now());
  EXPECT_EQ(kernel_script.live_trace(), reference_script.live_trace());
  EXPECT_EQ(0u, kernel.queue_size());
  EXPECT_EQ(0, kernel.max_excess());

  // The script exercised what it claims to.
  const Coverage& coverage = kernel_script.coverage();
  EXPECT_GT(reference.Fired(), 2000u);
  EXPECT_GT(coverage.schedules_at_now_in_callback, 100);
  EXPECT_GT(coverage.cancels_of_fired, 50);
  EXPECT_GT(coverage.cancels_of_pending, 50);
  EXPECT_GT(coverage.self_cancels_after_reschedule, 50);
  EXPECT_GT(coverage.epoch_tasks_run, 50);
  EXPECT_GT(coverage.run_untils, 10);
  EXPECT_GT(coverage.cancel_bursts, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelOrderPropertyTest, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace monosim
