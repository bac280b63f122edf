#include "src/simcore/simulation.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/simcore/audit.h"

namespace monosim {
namespace {

// Test double that records which audit phases the kernel swept it through.
class PhaseRecorder : public Auditable {
 public:
  explicit PhaseRecorder(Simulation* sim) : sim_(sim) { sim_->RegisterAuditable(this); }
  ~PhaseRecorder() override { sim_->UnregisterAuditable(this); }

  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override {
    audit.Expect(true, sim_->now(), "phase-recorder", "noop", "");
    if (phase == AuditPhase::kDrain) {
      ++drain_sweeps_;
    }
  }

  int drain_sweeps() const { return drain_sweeps_; }

 private:
  Simulation* sim_;
  mutable int drain_sweeps_ = 0;
};

// Test double that reports one violation on every sweep.
class AlwaysViolating : public Auditable {
 public:
  explicit AlwaysViolating(Simulation* sim) : sim_(sim) { sim_->RegisterAuditable(this); }
  ~AlwaysViolating() override { sim_->UnregisterAuditable(this); }

  void AuditInvariants(SimAudit& audit, AuditPhase /*phase*/) const override {
    audit.Expect(false, sim_->now(), "always-violating", "broken", "reported every sweep");
  }

 private:
  Simulation* sim_;
};

// Runs three epochs under a nested report-mode audit with an always-violating
// component registered; returns what the run wrote to stderr and how many
// violations the audit collected.
std::string StderrOfViolatingRun(bool recorder_enabled, size_t* violations) {
  ScopedAudit scoped(ScopedAudit::kReport);
  Simulation sim;
  sim.flight_recorder().set_enabled(recorder_enabled);
  AlwaysViolating broken(&sim);
  for (int i = 1; i <= 3; ++i) {
    sim.ScheduleAt(monoutil::Seconds(i), [] {});
  }
  ::testing::internal::CaptureStderr();
  sim.Run();
  *violations = scoped.audit().violations().size();
  return ::testing::internal::GetCapturedStderr();
}

size_t Occurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(SimulationTest, AuditViolationDumpsFlightRecorderOncePerSimulation) {
  size_t violations = 0;
  const std::string err = StderrOfViolatingRun(/*recorder_enabled=*/true, &violations);
  EXPECT_GE(violations, 4u);  // Three epoch sweeps and the drain sweep.
  EXPECT_EQ(Occurrences(err, "dumping flight recorder"), 1u) << err;
}

TEST(SimulationTest, DisabledFlightRecorderIsNotDumpedOnViolation) {
  size_t violations = 0;
  const std::string err = StderrOfViolatingRun(/*recorder_enabled=*/false, &violations);
  EXPECT_GE(violations, 4u);
  EXPECT_EQ(Occurrences(err, "dumping flight recorder"), 0u) << err;
}

TEST(SimulationTest, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 0.0);
}

TEST(SimulationTest, FiresEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(monoutil::Seconds(2.0), [&] { order.push_back(2); });
  sim.ScheduleAt(monoutil::Seconds(1.0), [&] { order.push_back(1); });
  sim.ScheduleAt(monoutil::Seconds(3.0), [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 3.0);
}

TEST(SimulationTest, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(monoutil::Seconds(1.0), [&] { order.push_back(1); });
  sim.ScheduleAt(monoutil::Seconds(1.0), [&] { order.push_back(2); });
  sim.ScheduleAt(monoutil::Seconds(1.0), [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, ScheduleAfterUsesRelativeDelay) {
  Simulation sim;
  double fired_at = -1.0;
  sim.ScheduleAt(monoutil::Seconds(5.0), [&] {
    sim.ScheduleAfter(monoutil::Seconds(2.5), [&] { fired_at = sim.now().seconds(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimulationTest, EventsScheduledDuringRunAreFired) {
  Simulation sim;
  int count = 0;
  sim.ScheduleAt(monoutil::Seconds(1.0), [&] {
    ++count;
    sim.ScheduleAfter(monoutil::Seconds(1.0), [&] { ++count; });
  });
  sim.Run();
  EXPECT_EQ(count, 2);
}

TEST(SimulationTest, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  EventHandle handle = sim.ScheduleAt(monoutil::Seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.Cancel();
  EXPECT_FALSE(handle.pending());
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelIsIdempotentAndSafeAfterFiring) {
  Simulation sim;
  int fired = 0;
  EventHandle handle = sim.ScheduleAt(monoutil::Seconds(1.0), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(handle.pending());
  handle.Cancel();  // Must not crash or double-fire.
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, EmptyHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.Cancel();
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(monoutil::Seconds(1.0), [&] { ++fired; });
  sim.ScheduleAt(monoutil::Seconds(10.0), [&] { ++fired; });
  sim.RunUntil(monoutil::Seconds(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 5.0);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, RunUntilFiresEventExactlyAtDeadline) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAt(monoutil::Seconds(5.0), [&] { fired = true; });
  sim.RunUntil(monoutil::Seconds(5.0));
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, StepFiresOneEvent) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(monoutil::Seconds(1.0), [&] { ++fired; });
  sim.ScheduleAt(monoutil::Seconds(2.0), [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, FiredEventsExcludesCancelled) {
  Simulation sim;
  sim.ScheduleAt(monoutil::Seconds(1.0), [] {});
  EventHandle handle = sim.ScheduleAt(monoutil::Seconds(2.0), [] {});
  handle.Cancel();
  sim.Run();
  EXPECT_EQ(sim.fired_events(), 1u);
}

TEST(SimulationTest, RunUntilTreatsCancelledOnlyRemainderAsDrained) {
  // Regression: a queue whose only remaining entries are cancelled tombstones
  // past the deadline must count as drained — the drain-phase audit sweeps run
  // exactly as if the queue were empty. (A naive deadline check that breaks
  // before discarding tombstones skips them.)
  ScopedAudit scoped(ScopedAudit::kReport);
  Simulation sim;
  PhaseRecorder recorder(&sim);
  bool fired = false;
  sim.ScheduleAt(monoutil::Seconds(1.0), [&] { fired = true; });
  EventHandle beyond = sim.ScheduleAt(monoutil::Seconds(10.0), [] { FAIL() << "cancelled event fired"; });
  beyond.Cancel();
  sim.RunUntil(monoutil::Seconds(5.0));
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.queue_size(), 0u);
  EXPECT_GE(recorder.drain_sweeps(), 1);
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 5.0);
  EXPECT_TRUE(scoped.audit().ok()) << scoped.audit().Summary();
}

TEST(SimulationTest, RunUntilStillSkipsDrainWhileLiveEventsRemain) {
  ScopedAudit scoped(ScopedAudit::kReport);
  Simulation sim;
  PhaseRecorder recorder(&sim);
  sim.ScheduleAt(monoutil::Seconds(10.0), [] {});
  sim.RunUntil(monoutil::Seconds(5.0));
  EXPECT_EQ(recorder.drain_sweeps(), 0);
  sim.Run();
  EXPECT_GE(recorder.drain_sweeps(), 1);
}

TEST(SimulationTest, TombstoneCountTracksCancelledQueueEntries) {
  Simulation sim;
  EventHandle a = sim.ScheduleAt(monoutil::Seconds(1.0), [] {});
  EventHandle b = sim.ScheduleAt(monoutil::Seconds(2.0), [] {});
  EXPECT_EQ(sim.queued_tombstones(), 0u);
  a.Cancel();
  a.Cancel();  // Idempotent: must not double-count.
  EXPECT_EQ(sim.queued_tombstones(), 1u);
  EXPECT_EQ(sim.queue_size(), 2u);
  sim.Run();
  EXPECT_EQ(sim.queued_tombstones(), 0u);
  EXPECT_EQ(sim.queue_size(), 0u);
  b.Cancel();  // Already fired: not a tombstone.
  EXPECT_EQ(sim.queued_tombstones(), 0u);
}

TEST(SimulationTest, CompactionBoundsQueueUnderCancelHeavyChurn) {
  // The fabric's recompute pattern: every state change cancels the pending
  // completion event and schedules a replacement. Without compaction the queue
  // holds every tombstone until its virtual time arrives.
  Simulation sim;
  constexpr int kChurn = 100000;
  size_t max_queue = 0;
  EventHandle pending;
  for (int i = 0; i < kChurn; ++i) {
    pending.Cancel();
    pending = sim.ScheduleAt(monoutil::Seconds(1e9 + i), [] {});
    max_queue = std::max(max_queue, sim.queue_size());
  }
  // One live event; everything else must have been compacted away.
  EXPECT_LE(max_queue, Simulation::kCompactionMinQueueSize + 2);
  EXPECT_LE(sim.queued_tombstones(), sim.queue_size());
}

TEST(SimulationTest, CompactionPreservesEventOrderAndPendingEvents) {
  // Force compactions while live events are interleaved with tombstones and
  // check nothing live is lost, reordered, or fired twice.
  Simulation sim;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 500; ++i) {
    sim.ScheduleAt(monoutil::Seconds(2.0 * i), [&order, i] { order.push_back(i); });
  }
  // More tombstones than live events, so the next schedule crosses the
  // tombstones-outnumber-live threshold and compacts.
  for (int i = 0; i < 600; ++i) {
    doomed.push_back(sim.ScheduleAt(monoutil::Seconds(1500.0 + i), [] { FAIL() << "cancelled event fired"; }));
  }
  for (EventHandle& handle : doomed) {
    handle.Cancel();
  }
  // Trigger compaction via new schedules now that tombstones dominate.
  for (int i = 0; i < 4; ++i) {
    sim.ScheduleAt(monoutil::Seconds(1000.0 + i), [] {});
  }
  EXPECT_LT(sim.queue_size(), 600u);  // Tombstones were dropped.
  sim.Run();
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(sim.fired_events(), 504u);
}

}  // namespace
}  // namespace monosim
