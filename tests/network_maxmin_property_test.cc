// Property tests for the fabric's incremental max-min allocation.
//
// The fabric recomputes rates incrementally, only over the connected component of
// flows sharing a NIC side with a changed endpoint. These tests drive randomized
// flow arrival/departure sequences through a fabric and, at every event boundary,
// compare every active flow's rate against the independent global reference solver
// (maxmin_reference.h). Departures are the completions the byte sizes induce, so
// each sequence exercises both directions of the incremental update.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/network.h"
#include "src/common/rng.h"
#include "src/simcore/audit.h"
#include "src/simcore/simulation.h"
#include "tests/legacy_share_fakes.h"
#include "tests/maxmin_reference.h"

namespace monosim {
namespace {

// Runs the fabric's allocation checks over `flows`; true if they flagged
// anything.
bool AllocationFlagged(const std::vector<NetworkFabricSim::FlowInfo>& flows, int num_machines,
                       double bandwidth) {
  SimAudit audit;  // Standalone: sees only this allocation.
  FabricSideTotals sides;
  AuditFabricAllocation(audit, SimTime(), flows, num_machines,
                        monoutil::BytesPerSecond(bandwidth), sides);
  return !audit.ok();
}

// Every flow's rate must equal its reference max-min rate (relative tolerance
// covering the two implementations' different accumulation orders). The
// reference allocation must also pass the fabric's allocation checks, and the
// min-share fake must be flagged exactly when it differs from the reference:
// the max-min allocation is unique and the certification characterizes it.
// Counts the sets on which the fake was flagged into `min_share_flagged`.
void ExpectRatesMatchReference(const NetworkFabricSim& fabric, double bandwidth,
                               int num_machines, SimTime now,
                               int* min_share_flagged = nullptr) {
  const std::vector<NetworkFabricSim::FlowInfo> active = fabric.ActiveFlows();
  std::vector<testutil::ReferenceFlow> reference_flows;
  for (const NetworkFabricSim::FlowInfo& info : active) {
    reference_flows.push_back({info.id, info.src, info.dst});
  }
  const auto reference =
      testutil::SolveMaxMinReference(reference_flows, num_machines, bandwidth);
  std::vector<NetworkFabricSim::FlowInfo> reference_allocation = active;
  for (NetworkFabricSim::FlowInfo& info : reference_allocation) {
    info.rate = monoutil::BytesPerSecond(reference.at(info.id));
  }
  for (const NetworkFabricSim::FlowInfo& info : active) {
    const double want = reference.at(info.id);
    ASSERT_NEAR(info.rate.bps(), want, 1e-6 * want)
        << "flow " << info.id << " (" << info.src << "->" << info.dst << ") at t="
        << now << " with " << reference_flows.size() << " active flows";
  }
  ASSERT_FALSE(AllocationFlagged(reference_allocation, num_machines, bandwidth))
      << "reference allocation of " << active.size() << " flows flagged at t=" << now;
  const std::vector<NetworkFabricSim::FlowInfo> min_share =
      testutil::MinShareAllocation(active, num_machines, bandwidth);
  bool differs = false;
  for (size_t i = 0; i < min_share.size(); ++i) {
    const double want = reference_allocation[i].rate.bps();
    differs = differs || std::abs(min_share[i].rate.bps() - want) > 1e-6 * want;
  }
  const bool flagged = AllocationFlagged(min_share, num_machines, bandwidth);
  ASSERT_EQ(flagged, differs) << "min-share fake over " << active.size()
                              << " flows at t=" << now;
  if (flagged && min_share_flagged != nullptr) {
    ++*min_share_flagged;
  }
}

TEST(NetworkMaxMinPropertyTest, IncrementalRatesMatchReferenceSolverOnRandomChurn) {
  constexpr int kSequences = 120;
  constexpr double kBandwidth = 100.0;
  for (uint64_t seed = 0; seed < kSequences; ++seed) {
    monoutil::Rng rng(seed + 1);
    const int machines = 2 + static_cast<int>(rng.NextBelow(7));  // 2..8
    const int arrivals = 8 + static_cast<int>(rng.NextBelow(25));  // 8..32

    Simulation sim;
    NetworkFabricSim fabric(&sim, machines, monoutil::BytesPerSecond(kBandwidth));
    int completed = 0;
    for (int i = 0; i < arrivals; ++i) {
      const int src = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));
      int dst = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines - 1)));
      if (dst >= src) {
        ++dst;
      }
      const auto bytes = static_cast<monoutil::Bytes>(1 + rng.NextBelow(500));
      const SimTime at = monoutil::Seconds(rng.Uniform(0.0, 5.0));
      sim.ScheduleAt(at, [&fabric, &completed, src, dst, bytes] {
        fabric.StartFlow(src, dst, bytes, [&completed] { ++completed; });
      });
    }
    while (sim.Step()) {
      ExpectRatesMatchReference(fabric, kBandwidth, machines, sim.now());
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    EXPECT_EQ(completed, arrivals) << "seed " << seed;
  }
}

TEST(NetworkMaxMinPropertyTest, SameTimestampBurstsMatchReferenceSolver) {
  // Epoch batching: every arrival and departure sharing one simulation
  // timestamp must be coalesced into a single solve whose allocation matches
  // the global reference. Bursts deliberately include duplicate
  // (src, dst, bytes) triples — those flows receive identical rates, so their
  // completions land on one timestamp too, exercising departure bursts and
  // mixed arrival+departure epochs, not just arrival batching.
  constexpr double kBandwidth = 100.0;
  uint64_t total_batched = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    monoutil::Rng rng(5000 + seed);
    const int machines = 3 + static_cast<int>(rng.NextBelow(6));  // 3..8

    Simulation sim;
    NetworkFabricSim fabric(&sim, machines, monoutil::BytesPerSecond(kBandwidth));
    int completed = 0;
    int launched = 0;
    const int bursts = 2 + static_cast<int>(rng.NextBelow(3));  // 2..4
    for (int b = 0; b < bursts; ++b) {
      const SimTime at = monoutil::Seconds(0.5 * b + rng.Uniform(0.0, 0.25));
      const int width = 3 + static_cast<int>(rng.NextBelow(8));  // 3..10
      int src = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));
      int dst = 0;
      monoutil::Bytes bytes;
      for (int i = 0; i < width; ++i) {
        // Roughly every other flow repeats the previous triple verbatim.
        if (i == 0 || rng.NextBelow(2) == 0) {
          src = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));
          dst = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines - 1)));
          if (dst >= src) {
            ++dst;
          }
          bytes = static_cast<monoutil::Bytes>(1 + rng.NextBelow(400));
        }
        ++launched;
        sim.ScheduleAt(at, [&fabric, &completed, src, dst, bytes] {
          fabric.StartFlow(src, dst, bytes, [&completed] { ++completed; });
        });
      }
    }
    while (sim.Step()) {
      ExpectRatesMatchReference(fabric, kBandwidth, machines, sim.now());
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    EXPECT_EQ(completed, launched) << "seed " << seed;
    total_batched += fabric.solver_stats().batched_changes;
  }
  // The sequences must actually have exercised epoch batching: at least some
  // epochs carried more than one arrival/departure into a single solve.
  EXPECT_GT(total_batched, 0u);
}

TEST(NetworkMaxMinPropertyTest, ParallelFlowsPerPairMatchReferenceSolver) {
  // Pair classes: the solver gives every flow of one (src, dst) pair one rate
  // and weighs the class by its multiplicity. Four machines carry up to 12
  // concurrent flows per pair, arriving one at a time and in same-timestamp
  // bursts on one pair (half of them with one shared size, so members of a
  // class also depart together). Every epoch is checked against the per-flow
  // reference solver under the fatal invariant audit, which also recounts the
  // per-pair bookkeeping.
  constexpr double kBandwidth = 100.0;
  constexpr int kMachines = 4;
  constexpr int kMaxPerPair = 12;
  ScopedAudit audit;
  int max_multiplicity = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    monoutil::Rng rng(9000 + seed);
    Simulation sim;
    NetworkFabricSim fabric(&sim, kMachines, monoutil::BytesPerSecond(kBandwidth));
    std::vector<int> live(kMachines * kMachines, 0);
    int launched = 0;
    int completed = 0;
    const auto launch = [&](int src, int dst, monoutil::Bytes bytes) {
      const auto pair = static_cast<size_t>(src * kMachines + dst);
      if (live[pair] == kMaxPerPair) {
        return;
      }
      max_multiplicity = std::max(max_multiplicity, ++live[pair]);
      ++launched;
      fabric.StartFlow(src, dst, bytes, [&live, &completed, pair] {
        --live[pair];
        ++completed;
      });
    };
    for (int event = 0; event < 30; ++event) {
      const int src = static_cast<int>(rng.NextBelow(kMachines));
      int dst = static_cast<int>(rng.NextBelow(kMachines - 1));
      if (dst >= src) {
        ++dst;
      }
      const int width = rng.NextBelow(2) == 0 ? 1 : 2 + static_cast<int>(rng.NextBelow(11));
      const bool same_size = rng.NextBelow(2) == 0;
      std::vector<monoutil::Bytes> sizes;
      for (int i = 0; i < width; ++i) {
        sizes.push_back(same_size && i > 0 ? sizes.front()
                                           : static_cast<monoutil::Bytes>(1 + rng.NextBelow(400)));
      }
      sim.ScheduleAt(monoutil::Seconds(rng.Uniform(0.0, 3.0)), [&launch, src, dst, sizes] {
        for (const monoutil::Bytes bytes : sizes) {
          launch(src, dst, bytes);
        }
      });
    }
    while (sim.Step()) {
      ExpectRatesMatchReference(fabric, kBandwidth, kMachines, sim.now());
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    EXPECT_EQ(completed, launched) << "seed " << seed;
  }
  // The sequences must have stacked many flows onto one pair.
  EXPECT_GE(max_multiplicity, 8);
}

TEST(NetworkMaxMinPropertyTest, PruningEligibleDeltasArePatchedAndStayCorrect) {
  // Flows confined to disjoint machine pairs: an arrival onto a free pair and
  // the departure of a pair's sole flow are both provably invisible to every
  // other pair's bottleneck set, so the solver must take its local patch path
  // — and the patched rates must still match the global reference at every
  // event boundary.
  constexpr double kBandwidth = 100.0;
  constexpr int kMachines = 8;  // Pairs (0,1) (2,3) (4,5) (6,7).
  Simulation sim;
  NetworkFabricSim fabric(&sim, kMachines, monoutil::BytesPerSecond(kBandwidth));
  monoutil::Rng rng(42);
  int completed = 0;
  constexpr int kArrivals = 24;
  for (int i = 0; i < kArrivals; ++i) {
    const int pair = i % 4;
    const int src = 2 * pair;
    const int dst = 2 * pair + 1;
    const auto bytes = static_cast<monoutil::Bytes>(20 + rng.NextBelow(120));
    // Staggered arrivals: patches only apply to a clean fabric, so each delta
    // gets its own epoch.
    sim.ScheduleAt(monoutil::Seconds(0.05 * i), [&fabric, &completed, src, dst, bytes] {
      fabric.StartFlow(src, dst, bytes, [&completed] { ++completed; });
    });
  }
  while (sim.Step()) {
    ExpectRatesMatchReference(fabric, kBandwidth, kMachines, sim.now());
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  EXPECT_EQ(completed, kArrivals);
  const NetworkFabricSim::SolverStats stats = fabric.solver_stats();
  EXPECT_GT(stats.patched_arrivals, 0u)
      << "no arrival took the patch path on a free disjoint pair";
  EXPECT_GT(stats.patched_departures, 0u)
      << "no departure of a pair's sole flow was patched";
}

// One flow of a scripted scenario: started at `at` seconds; if `then_dst` is
// set, its completion starts a long then_src->then_dst flow at the same
// instant.
struct ScriptedFlow {
  double at;
  int src;
  int dst;
  int64_t bytes;
  int then_src = -1;
  int then_dst = -1;
};

// Bytes of a flow that outlasts every scripted event.
constexpr int64_t kLong = 1000000;

// Runs `script` on `machines` NICs of 100 B/s each way, comparing every rate
// with the reference solver after each event (which flushes it, so flows
// started at one instant are still flushed one by one), and returns the
// solver stats.
NetworkFabricSim::SolverStats RunScript(int machines, const std::vector<ScriptedFlow>& script) {
  constexpr double kBandwidth = 100.0;
  Simulation sim;
  NetworkFabricSim fabric(&sim, machines, monoutil::BytesPerSecond(kBandwidth));
  for (const ScriptedFlow& flow : script) {
    sim.ScheduleAt(monoutil::Seconds(flow.at), [&fabric, flow] {
      fabric.StartFlow(flow.src, flow.dst, monoutil::Bytes(flow.bytes), [&fabric, flow] {
        if (flow.then_dst >= 0) {
          fabric.StartFlow(flow.then_src, flow.then_dst, monoutil::Bytes(kLong), [] {});
        }
      });
    });
  }
  while (sim.Step()) {
    ExpectRatesMatchReference(fabric, kBandwidth, machines, sim.now());
    if (::testing::Test::HasFatalFailure()) {
      break;
    }
  }
  return fabric.solver_stats();
}

TEST(NetworkMaxMinPropertyTest, SpanningFlushAppliesRatesSetOutsideIt) {
  // A flush whose solve spans the whole fabric applies only the pairs whose
  // solved rate differs from the one it last applied to them. Each scenario
  // below sets a pair's flows to some rate outside such a flush, then forces
  // one that solves the pair back to the rate it last applied there: unless
  // the outside path forgot that rate, the flows keep the wrong one.

  // A flow completes and its callback starts a replacement on the same pair:
  // one batched departure plus arrival, so the pair's solved rate (and count)
  // is unchanged while the new member has no rate at all.
  RunScript(3, {{0.0, 0, 1, 100, 0, 1}, {0.0, 0, 1, kLong}, {0.0, 2, 1, kLong}});
  if (HasFatalFailure()) {
    return;
  }

  // A patched arrival: 3->4 runs at 66.7 and leaves at t=3 (a patched
  // departure); 1->5 leaves at t=6, which lifts 3->5 to 50; a new 3->4 flow
  // is patched in at 50 at t=7 (the third patched arrival), and a new 1->5
  // flow at t=8 forces a spanning flush that solves 3->4 at 66.7 again.
  const NetworkFabricSim::SolverStats patched =
      RunScript(6, {{0.0, 3, 5, kLong}, {0.0, 0, 5, kLong}, {0.0, 1, 5, 200}, {0.0, 3, 4, 200},
                    {7.0, 3, 4, kLong}, {8.0, 1, 5, kLong}});
  if (HasFatalFailure()) {
    return;
  }
  EXPECT_EQ(patched.patched_arrivals, 3u);

  // An affected-set sub-solve: 2->1 leaves at t=7 and a sub-solve over 0->1
  // alone raises it to 100; a new 2->1 flow then forces a spanning flush that
  // solves 0->1 back to 50.
  RunScript(8, {{0.0, 0, 1, kLong}, {0.0, 2, 1, 300}, {0.0, 4, 5, kLong}, {0.0, 6, 7, kLong},
                {0.0, 0, 5, 250}, {0.0, 6, 1, 100}, {8.0, 2, 1, kLong}});
  if (HasFatalFailure()) {
    return;
  }

  // A full-closure component solve. Once a flush has found the closure to span
  // every flow, the next few dozen fallbacks solve the whole fabric without
  // collecting it; 70 flows stacked on 6->7 use those up and keep the fabric
  // in two components. When 2->1 leaves at t=9, its closure {0->1, 5->1, 0->3}
  // is solved alone and 0->1 rises from 33.3 to 50. The 6->7 flows end at
  // t=70, and a new 2->1 flow at t=80 makes the closure span the fabric
  // again, solving 0->1 back to 33.3.
  std::vector<ScriptedFlow> script = {
      {0.0, 0, 1, kLong}, {0.0, 2, 1, 300}, {0.0, 5, 1, kLong}, {0.0, 0, 3, kLong}};
  for (int i = 0; i < 70; ++i) {
    script.push_back({0.0, 6, 7, 100});
  }
  script.push_back({80.0, 2, 1, kLong});
  RunScript(8, script);
}

TEST(NetworkMaxMinPropertyTest, HeavyFanInSequencesStayWorkConserving) {
  // Skewed sequences: most flows converge on one hot receiver (Spark's
  // many-concurrent-fetch shuffle pattern), the rest are scattered — the shape the
  // legacy min-share model distorted, so its fake must be flagged on some. Work
  // conservation here means every flow is bottlenecked at a saturated NIC, which
  // ExpectRatesMatchReference implies (reference rates are max-min, hence
  // work-conserving).
  constexpr double kBandwidth = 100.0;
  int min_share_flagged = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    monoutil::Rng rng(1000 + seed);
    const int machines = 4 + static_cast<int>(rng.NextBelow(5));  // 4..8
    const int hot = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));

    Simulation sim;
    NetworkFabricSim fabric(&sim, machines, monoutil::BytesPerSecond(kBandwidth));
    for (int i = 0; i < 24; ++i) {
      const bool to_hot = rng.NextDouble() < 0.7;
      int src = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines)));
      int dst = hot;
      if (!to_hot || src == hot) {
        dst = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(machines - 1)));
        if (dst >= src) {
          ++dst;
        }
      }
      const auto bytes = static_cast<monoutil::Bytes>(1 + rng.NextBelow(300));
      const SimTime at = monoutil::Seconds(rng.Uniform(0.0, 2.0));
      sim.ScheduleAt(at, [&fabric, src, dst, bytes] {
        fabric.StartFlow(src, dst, bytes, [] {});
      });
    }
    while (sim.Step()) {
      ExpectRatesMatchReference(fabric, kBandwidth, machines, sim.now(), &min_share_flagged);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
  // The skewed sets must include asymmetric ones the min-share model strands.
  EXPECT_GT(min_share_flagged, 0);
}

}  // namespace
}  // namespace monosim
