#include "src/cluster/network.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/tracing/tracer.h"
#include "src/model/trace_report.h"
#include "src/simcore/simulation.h"

namespace monosim {
namespace {

using monoutil::Bytes;

TEST(NetworkFabricTest, SingleFlowRunsAtLinkRate) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, /*nic_bandwidth=*/monoutil::BytesPerSecond(100.0));
  double done_at = -1.0;
  fabric.StartFlow(0, 1, Bytes(200), [&] { done_at = sim.now().seconds(); });
  sim.Run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(NetworkFabricTest, TwoFlowsToSameReceiverShareIngress) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  int finished = 0;
  fabric.StartFlow(0, 2, Bytes(100), [&] { ++finished; });
  fabric.StartFlow(1, 2, Bytes(100), [&] { ++finished; });
  sim.Run();
  EXPECT_EQ(finished, 2);
  EXPECT_NEAR(sim.now().seconds(), 2.0, 1e-9);  // Each got 50 B/s.
}

TEST(NetworkFabricTest, TwoFlowsFromSameSenderShareEgress) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  int finished = 0;
  fabric.StartFlow(0, 1, Bytes(100), [&] { ++finished; });
  fabric.StartFlow(0, 2, Bytes(100), [&] { ++finished; });
  sim.Run();
  EXPECT_EQ(finished, 2);
  EXPECT_NEAR(sim.now().seconds(), 2.0, 1e-9);
}

TEST(NetworkFabricTest, DisjointFlowsDoNotInterfere) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  int finished = 0;
  fabric.StartFlow(0, 1, Bytes(100), [&] { ++finished; });
  fabric.StartFlow(2, 3, Bytes(100), [&] { ++finished; });
  sim.Run();
  EXPECT_EQ(finished, 2);
  EXPECT_NEAR(sim.now().seconds(), 1.0, 1e-9);
}

TEST(NetworkFabricTest, StrandedCapacityIsRedistributedMaxMinFairly) {
  // The asymmetric fan-in shape the legacy min-of-shares model got wrong. Flows
  // m0->m1, m0->m1, m0->m2 are bottlenecked at m0's egress (100/3 each); flow
  // m4->m2 then deserves everything m2's ingress has left: 100 - 100/3 = 200/3.
  // The legacy model handed it min(100/1 egress, 100/2 ingress) = 50, stranding
  // 100/6 of m2's ingress capacity, so its 200 bytes took 4 s instead of 3 s.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 5, monoutil::BytesPerSecond(100.0));
  double done_at = -1.0;
  fabric.StartFlow(0, 1, Bytes(1000), [] {});
  fabric.StartFlow(0, 1, Bytes(1000), [] {});
  fabric.StartFlow(0, 2, Bytes(1000), [] {});
  const NetworkFabricSim::FlowId fan_in = fabric.StartFlow(4, 2, Bytes(200), [&] {
    done_at = sim.now().seconds();
  });
  EXPECT_NEAR(fabric.flow_rate(fan_in).bps(), 200.0 / 3.0, 1e-6);
  sim.Run();
  EXPECT_NEAR(done_at, 3.0, 1e-6);
}

TEST(NetworkFabricTest, StrandedEgressCapacityIsRedistributedToo) {
  // Mirror image of the fan-in case: m0's ingress is the shared bottleneck
  // (three flows at 100/3), so flow m2->m4 gets the rest of m2's egress
  // (100 - 100/3 = 200/3), not the legacy equal egress split of 50.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 5, monoutil::BytesPerSecond(100.0));
  fabric.StartFlow(1, 0, Bytes(1000), [] {});
  fabric.StartFlow(1, 0, Bytes(1000), [] {});
  fabric.StartFlow(2, 0, Bytes(1000), [] {});
  const NetworkFabricSim::FlowId fan_out = fabric.StartFlow(2, 4, Bytes(200), [] {});
  EXPECT_NEAR(fabric.flow_rate(fan_out).bps(), 200.0 / 3.0, 1e-6);
  sim.Run();
}

TEST(NetworkFabricTest, CascadedRedistributionBottomsOutEveryFlow) {
  // Two levels of filling: e0 saturates first (A,B,C at 30); the freed ingress
  // capacity at m2 then lets D rise until e3/i4 saturate, dragging E and F with
  // it. Every flow ends pinned to a saturated NIC side.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 6, monoutil::BytesPerSecond(90.0));
  const auto a = fabric.StartFlow(0, 1, Bytes(1000), [] {});
  const auto b = fabric.StartFlow(0, 1, Bytes(1000), [] {});
  const auto c = fabric.StartFlow(0, 2, Bytes(1000), [] {});
  const auto d = fabric.StartFlow(3, 2, Bytes(1000), [] {});
  const auto e = fabric.StartFlow(3, 4, Bytes(1000), [] {});
  const auto f = fabric.StartFlow(5, 4, Bytes(1000), [] {});
  EXPECT_NEAR(fabric.flow_rate(a).bps(), 30.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(b).bps(), 30.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(c).bps(), 30.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(d).bps(), 45.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(e).bps(), 45.0, 1e-9);
  EXPECT_NEAR(fabric.flow_rate(f).bps(), 45.0, 1e-9);
  sim.Run();
}

TEST(NetworkFabricTest, FabricChurnKeepsEventQueueCompact) {
  // Flow completions live in the fabric's own index, tracked by a single timer
  // event: however many flows are in flight and however often a re-solve
  // re-times them, the fabric holds at most one live simulation event. Moving
  // that timer cancels the old event, so the queue may also carry tombstones,
  // which compaction keeps below its floor.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 8, monoutil::BytesPerSecond(100.0));
  constexpr int kLanes = 64;
  constexpr int kFlowsPerLane = 50;
  size_t max_queue = 0;
  size_t max_live = 0;
  int completed = 0;
  std::function<void(int, int)> launch = [&](int lane, int remaining) {
    if (remaining == 0) {
      return;
    }
    const int src = lane % 8;
    int dst = (lane * 3 + 1) % 8;
    if (dst == src) {
      dst = (dst + 1) % 8;
    }
    fabric.StartFlow(src, dst, Bytes(64 + lane), [&, lane, remaining] {
      ++completed;
      max_queue = std::max(max_queue, sim.queue_size());
      max_live = std::max(max_live, sim.queue_size() - sim.queued_tombstones());
      launch(lane, remaining - 1);
    });
  };
  for (int lane = 0; lane < kLanes; ++lane) {
    launch(lane, kFlowsPerLane);
  }
  sim.Run();
  EXPECT_EQ(completed, kLanes * kFlowsPerLane);
  // One completion timer, whatever the lane count: at most one live event, and
  // tombstones of the moved timer never outgrow the compaction floor.
  EXPECT_LE(max_live, 1u);
  EXPECT_LE(max_queue, 1 + Simulation::kCompactionMinQueueSize);
}

TEST(NetworkFabricTest, FlowRateIsMinOfEndpointShares) {
  // Receiver 3 carries two flows (shares: 50 each); sender 0 carries the 0->3 flow
  // plus another egress flow, so 0->3 also gets 50 from the sender side. Flow 1->3
  // is receiver-limited at 50 even though its sender is idle otherwise.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  double flow_1_3_done = -1.0;
  fabric.StartFlow(0, 3, Bytes(1000), [] {});
  fabric.StartFlow(0, 2, Bytes(1000), [] {});
  fabric.StartFlow(1, 3, Bytes(100), [&] { flow_1_3_done = sim.now().seconds(); });
  sim.Run();
  EXPECT_NEAR(flow_1_3_done, 2.0, 1e-6);
}

TEST(NetworkFabricTest, CompletionFreesBandwidthForRemainingFlows) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  double small_done = -1.0;
  double large_done = -1.0;
  fabric.StartFlow(0, 2, Bytes(50), [&] { small_done = sim.now().seconds(); });
  fabric.StartFlow(1, 2, Bytes(150), [&] { large_done = sim.now().seconds(); });
  sim.Run();
  // Both at 50 B/s; small finishes at t=1 (50 B). Large has 100 B left, now alone at
  // 100 B/s -> finishes at t=2.
  EXPECT_NEAR(small_done, 1.0, 1e-9);
  EXPECT_NEAR(large_done, 2.0, 1e-9);
}

TEST(NetworkFabricTest, ZeroByteFlowCompletes) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 2, monoutil::BytesPerSecond(100.0));
  bool done = false;
  fabric.StartFlow(0, 1, Bytes(0), [&] { done = true; });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(NetworkFabricTest, EarliestCompletionReKeyedLaterFiresInOrder) {
  // Flow a (0->1) is the earliest completion (t=1) until an arrival on its
  // sides halves its rate at t=0.5, moving it to t=1.5 — past flow b (2->3,
  // due t=1.4 on disjoint sides). The fabric must notice its earliest moved
  // later: b completes first, at its own time, then a.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  std::vector<std::pair<char, double>> done;
  fabric.StartFlow(0, 1, Bytes(100), [&] { done.emplace_back('a', sim.now().seconds()); });
  fabric.StartFlow(2, 3, Bytes(140), [&] { done.emplace_back('b', sim.now().seconds()); });
  sim.ScheduleAt(monoutil::Seconds(0.5), [&] {
    fabric.StartFlow(0, 1, Bytes(1000), [&] { done.emplace_back('c', sim.now().seconds()); });
  });
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 'b');
  EXPECT_NEAR(done[0].second, 1.4, 1e-9);
  EXPECT_EQ(done[1].first, 'a');
  EXPECT_NEAR(done[1].second, 1.5, 1e-9);
  EXPECT_EQ(done[2].first, 'c');
}

TEST(NetworkFabricTest, ZeroByteFlowStartedAtSharedInstantCompletesInSameLoop) {
  // Three equal flows on disjoint pairs all come due at t=1. The first one's
  // completion starts a zero-byte flow on a free pair, due immediately: it
  // must complete in the same completion loop, after the flows already due at
  // that instant (its id is larger), without another timer event firing.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 8, monoutil::BytesPerSecond(100.0));
  std::vector<std::pair<int, double>> done;
  const auto record = [&](int flow) { done.emplace_back(flow, sim.now().seconds()); };
  fabric.StartFlow(0, 1, Bytes(100), [&] {
    record(1);
    fabric.StartFlow(6, 7, Bytes(0), [&] { record(4); });
  });
  fabric.StartFlow(2, 3, Bytes(100), [&] { record(2); });
  fabric.StartFlow(4, 5, Bytes(100), [&] { record(3); });
  sim.Run();
  ASSERT_EQ(done.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(done[static_cast<size_t>(i)].first, i + 1);
    EXPECT_NEAR(done[static_cast<size_t>(i)].second, 1.0, 1e-9);
  }
  EXPECT_EQ(sim.fired_events(), 1u);
}

TEST(NetworkFabricTest, ControlMessageTakesRequestLatency) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 2, monoutil::BytesPerSecond(100.0),
                          /*request_latency=*/monoutil::Seconds(0.25));
  double delivered_at = -1.0;
  fabric.SendControl(0, 1, [&] { delivered_at = sim.now().seconds(); });
  sim.Run();
  EXPECT_NEAR(delivered_at, 0.25, 1e-12);
}

TEST(NetworkFabricTest, TracksTotalBytes) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 3, monoutil::BytesPerSecond(100.0));
  fabric.StartFlow(0, 1, Bytes(100), [] {});
  fabric.StartFlow(1, 2, Bytes(300), [] {});
  sim.Run();
  EXPECT_EQ(fabric.total_bytes_transferred(), Bytes(400));
}

TEST(NetworkFabricTest, IngressTraceMeasuresUtilization) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 2, monoutil::BytesPerSecond(100.0));
  fabric.EnableTrace();
  fabric.StartFlow(0, 1, Bytes(100), [] {});  // Saturates machine 1's ingress for 1s.
  sim.Run();
  sim.ScheduleAt(monoutil::Seconds(2.0), [] {});
  sim.Run();
  EXPECT_NEAR(fabric.MeanIngressUtilization(1, monoutil::Seconds(0.0), monoutil::Seconds(1.0)), 1.0, 1e-9);
  EXPECT_NEAR(fabric.MeanIngressUtilization(1, monoutil::Seconds(0.0), monoutil::Seconds(2.0)), 0.5, 1e-9);
  EXPECT_NEAR(fabric.MeanIngressUtilization(0, monoutil::Seconds(0.0), monoutil::Seconds(2.0)), 0.0, 1e-9);
}

TEST(NetworkFabricTest, FlushRecordsEachIngressMachineOnce) {
  // Three flows into machine 0 at t = 0: the first is patched in on arrival
  // (one sample), the other two batch into one flush that re-solves all three.
  // That flush samples machine 0 once, not once per solved flow.
  monotrace::ScopedTracer scoped;
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  for (int src = 1; src <= 3; ++src) {
    fabric.StartFlow(src, 0, Bytes(100), [] {});
  }
  sim.Run();
  const monomodel::ParsedTrace trace = monomodel::ParseChromeTrace(scoped.tracer().ToJson());
  ASSERT_TRUE(trace.ok()) << trace.errors.front();
  const auto at_start = std::count_if(
      trace.counters.begin(), trace.counters.end(),
      [](const monomodel::TraceCounterSample& sample) {
        return sample.series == "machine0.nic-in" && sample.ts == 0.0;
      });
  EXPECT_EQ(at_start, 2);
}

TEST(NetworkFabricTest, FlowCountsTrackActiveFlows) {
  Simulation sim;
  NetworkFabricSim fabric(&sim, 3, monoutil::BytesPerSecond(100.0));
  fabric.StartFlow(0, 1, Bytes(100), [] {});
  fabric.StartFlow(2, 1, Bytes(100), [] {});
  EXPECT_EQ(fabric.ingress_flows(1), 2);
  EXPECT_EQ(fabric.egress_flows(0), 1);
  sim.Run();
  EXPECT_EQ(fabric.ingress_flows(1), 0);
  EXPECT_EQ(fabric.egress_flows(0), 0);
}

TEST(NetworkFabricTest, AllToAllShuffleIsSymmetric) {
  // 4 machines, everyone sends 300 B to everyone else. Each NIC carries 3 ingress
  // flows of 300 B at 100/3 B/s -> 9 s total.
  Simulation sim;
  NetworkFabricSim fabric(&sim, 4, monoutil::BytesPerSecond(100.0));
  int finished = 0;
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src != dst) {
        fabric.StartFlow(src, dst, Bytes(300), [&] { ++finished; });
      }
    }
  }
  sim.Run();
  EXPECT_EQ(finished, 12);
  EXPECT_NEAR(sim.now().seconds(), 9.0, 1e-6);
}

}  // namespace
}  // namespace monosim
