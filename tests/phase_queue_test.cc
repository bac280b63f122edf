// Unit tests for the shared per-phase queueing policy (src/common/phase_queue.h):
// plain values, no threads, no Simulation.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/phase_queue.h"

namespace monoutil {
namespace {

constexpr int kRead = static_cast<int>(DiskPhase::kRead);
constexpr int kWrite = static_cast<int>(DiskPhase::kWrite);
constexpr int kServe = static_cast<int>(DiskPhase::kServe);

std::vector<std::string> Drain(PhaseQueue<std::string>& queue) {
  std::vector<std::string> order;
  while (!queue.empty()) {
    order.push_back(queue.Pop());
  }
  return order;
}

TEST(PhaseQueueTest, SinglePhaseIsFifo) {
  PhaseQueue<std::string> queue(1);
  for (const char* label : {"a", "b", "c", "d"}) {
    queue.Push(0, label);
  }
  EXPECT_EQ(queue.size(), 4);
  EXPECT_EQ(queue.Pop(), "a");
  EXPECT_EQ(queue.Pop(), "b");
  queue.Push(0, "e");
  EXPECT_EQ(Drain(queue), (std::vector<std::string>{"c", "d", "e"}));
}

TEST(PhaseQueueTest, RoundRobinResumesAfterLastPhaseServed) {
  PhaseQueue<std::string> queue(kNumDiskPhases);
  queue.Push(kWrite, "w0");
  queue.Push(kWrite, "w1");
  queue.Push(kWrite, "w2");
  EXPECT_EQ(queue.Pop(), "w0");  // The cursor starts at read; writes are all there is.
  // The rotation resumes after the write phase: serve, then read, then write —
  // no write convoy even though the writes were queued first.
  queue.Push(kRead, "r0");
  queue.Push(kServe, "s0");
  queue.Push(kRead, "r1");
  EXPECT_EQ(queue.size(), 5);
  EXPECT_EQ(queue.size(kWrite), 2);
  EXPECT_EQ(Drain(queue), (std::vector<std::string>{"s0", "r0", "w1", "r1", "w2"}));
}

}  // namespace
}  // namespace monoutil
