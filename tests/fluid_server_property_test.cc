// Property test: FluidServer against the plain water-fill reference
// (tests/fluid_reference.h).
//
// Random scripts of submits and cancels (plus resubmits from inside `done`
// callbacks) run through both servers, each in its own Simulation. Every
// observable is logged: the (id, rate, share weight) of each active request
// after every change, each completion's time and order, the work a cancel
// returns, and the total served at the end. The logs must agree bit for bit,
// over capped and uncapped servers, constant, HDD and SSD capacity models,
// and mixed contention and share weights, including splits where capped
// requests leave surplus to re-share.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"
#include "tests/fluid_reference.h"

namespace monosim {
namespace {

// One logged observation; doubles are compared by bit pattern.
struct Entry {
  // 's': one request's share; 'e': end of a snapshot of shares; 'c': a
  // completion; 'x': a cancel; 't': total served at the end; 'd': the run's
  // event digest.
  char kind;
  uint64_t key;
  double a;
  double b;
  double c;

  bool operator==(const Entry& other) const {
    return kind == other.kind && key == other.key &&
           std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(other.a) &&
           std::bit_cast<uint64_t>(b) == std::bit_cast<uint64_t>(other.b) &&
           std::bit_cast<uint64_t>(c) == std::bit_cast<uint64_t>(other.c);
  }
};

std::ostream& operator<<(std::ostream& out, const Entry& e) {
  return out << e.kind << " key=" << e.key << " a=" << e.a << " b=" << e.b
             << " c=" << e.c;
}

struct Params {
  double amount;
  double weight;
  double share_weight;  // FluidServer::kSameAsWeight or a positive weight.
};

// A scripted action at a fixed virtual time. A submit whose `chain` is
// positive resubmits `chain` more requests, one from each `done`.
struct Op {
  double at;
  bool cancel;
  uint64_t pick;  // Cancel: index into the live requests.
  Params params;
  int chain;
};

enum class Model { kConstant, kHdd, kSsd };

struct Scenario {
  const char* name;
  Model model;
  double per_request_cap;
  // Multiplies every scripted amount so requests overlap on faster devices.
  double work_scale;
};

void PrintTo(const Scenario& scenario, std::ostream* out) { *out << scenario.name; }

CapacityFn MakeCapacity(Model model) {
  switch (model) {
    case Model::kConstant:
      return ConstantCapacity(4.0);
    case Model::kHdd:
      return HddCapacity(100.0, 0.2);
    case Model::kSsd:
      return SsdCapacity(400.0, 4, 0.55);
  }
  return nullptr;
}

Params DrawParams(monoutil::Rng& rng) {
  Params p;
  // Mostly ordinary amounts, some tiny and some zero (instant completions).
  const uint64_t size_class = rng.NextBelow(10);
  p.amount = size_class == 0 ? 0.0 : size_class == 1 ? rng.Uniform(0.0, 1e-3)
                                                     : rng.Uniform(0.5, 40.0);
  const double weights[] = {0.25, 0.3, 1.0, 2.0, 6.0};
  p.weight = weights[rng.NextBelow(5)];
  const double shares[] = {FluidServer::kSameAsWeight, 0.5, 1.0, 1.5, 3.0, 8.0};
  p.share_weight = shares[rng.NextBelow(6)];
  return p;
}

std::vector<Op> MakeScript(uint64_t seed, int ops) {
  monoutil::Rng rng(seed);
  std::vector<Op> script;
  double at = 0.0;
  for (int i = 0; i < ops; ++i) {
    // Bursts of simultaneous ops make ties; gaps let requests finish.
    if (rng.NextBelow(3) != 0) {
      at += rng.Exponential(0.6);
    }
    Op op;
    op.at = at;
    op.cancel = rng.NextBelow(5) == 0;
    op.pick = rng.NextU64();
    op.params = DrawParams(rng);
    op.chain = rng.NextBelow(4) == 0 ? static_cast<int>(1 + rng.NextBelow(3)) : 0;
    script.push_back(op);
  }
  return script;
}

template <typename Server>
std::unique_ptr<Server> MakeServer(Simulation* sim, const Scenario& scenario) {
  if constexpr (std::is_same_v<Server, FluidServer>) {
    return std::make_unique<FluidServer>(sim, "dev", MakeCapacity(scenario.model),
                                         scenario.per_request_cap);
  } else {
    return std::make_unique<Server>(sim, MakeCapacity(scenario.model),
                                    scenario.per_request_cap);
  }
}

template <typename Server>
std::vector<Entry> RunScript(const Scenario& scenario, const std::vector<Op>& script) {
  Simulation sim;
  std::unique_ptr<Server> server = MakeServer<Server>(&sim, scenario);
  std::vector<Entry> log;
  // Live requests in submission order: (script tag, server id).
  std::vector<std::pair<uint64_t, uint64_t>> live;
  uint64_t next_tag = 0;

  const auto log_shares = [&] {
    uint64_t count = 0;
    for (const FluidServer::ShareInfo& share : server->Shares()) {
      log.push_back(Entry{'s', share.id, share.rate, share.share_weight, 0.0});
      ++count;
    }
    log.push_back(Entry{'e', count, sim.now().seconds(), 0.0, 0.0});
  };
  std::function<void(const Params&, int)> submit = [&](const Params& params, int chain) {
    const uint64_t tag = next_tag++;
    const auto id = server->Submit(
        params.amount * scenario.work_scale,
        [&, tag, params, chain] {
          log.push_back(Entry{'c', tag, sim.now().seconds(), 0.0, 0.0});
          std::erase_if(live, [tag](const auto& entry) { return entry.first == tag; });
          log_shares();
          if (chain > 0) {
            // A follow-up from inside `done`: re-enters Submit mid-completion.
            Params next = params;
            next.amount = params.amount * 0.5 + 1.0;
            submit(next, chain - 1);
          }
        },
        params.weight, params.share_weight);
    live.emplace_back(tag, id);
    log_shares();
  };
  for (const Op& op : script) {
    sim.ScheduleAt(monoutil::Seconds(op.at), [&, op] {
      if (op.cancel) {
        if (live.empty()) {
          return;
        }
        const auto victim = live.begin() + static_cast<std::ptrdiff_t>(op.pick % live.size());
        const uint64_t tag = victim->first;
        const auto id = victim->second;
        live.erase(victim);
        log.push_back(Entry{'x', tag, server->CancelRequest(id), 0.0, 0.0});
        log_shares();
        return;
      }
      submit(op.params, op.chain);
    }, "script");
  }
  sim.Run();
  log.push_back(Entry{'t', live.size(), server->total_served(), sim.now().seconds(), 0.0});
  // The kernel saw the same events in the same order: one cancel and one
  // re-armed completion per reschedule, however the rates were computed.
  log.push_back(Entry{'d', sim.digest(), static_cast<double>(sim.fired_events()), 0.0, 0.0});
  return log;
}

class FluidServerReferenceTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(FluidServerReferenceTest, MatchesPlainWaterFillBitForBit) {
  const Scenario& scenario = GetParam();
  for (const uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << scenario.name << " seed " << seed);
    const std::vector<Op> script = MakeScript(seed, 300);
    const std::vector<Entry> got = RunScript<FluidServer>(scenario, script);
    const std::vector<Entry> want =
        RunScript<testutil::ReferenceFluidServer>(scenario, script);
    ASSERT_GT(want.size(), script.size());
    const size_t n = std::min(got.size(), want.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i], got[i]) << "first difference at log entry " << i;
    }
    ASSERT_EQ(want.size(), got.size());
  }
}

// Capped scenarios split so that high share weights pin at the cap while the
// rest re-share the surplus: with capacity 4 and cap 1 a request holding more
// than a quarter of the open share weight pins.
INSTANTIATE_TEST_SUITE_P(
    Servers, FluidServerReferenceTest,
    ::testing::Values(
        Scenario{"uncapped_constant", Model::kConstant, FluidServer::kUnlimited, 1.0},
        Scenario{"uncapped_hdd", Model::kHdd, FluidServer::kUnlimited, 25.0},
        Scenario{"uncapped_ssd", Model::kSsd, FluidServer::kUnlimited, 80.0},
        Scenario{"capped_cpu_pool", Model::kConstant, 1.0, 1.0},
        Scenario{"capped_ssd", Model::kSsd, 150.0, 80.0}),
    [](const ::testing::TestParamInfo<Scenario>& info) { return std::string(info.param.name); });

// The capped scripts really exercise surplus redistribution: some split pins
// a request at the cap while the others receive more than their plain
// proportional share of the capacity.
TEST(FluidServerReferenceCoverage, CappedScriptsRedistributeSurplus) {
  const Scenario scenario{"capped_cpu_pool", Model::kConstant, 1.0, 1.0};
  const std::vector<Entry> log = RunScript<FluidServer>(scenario, MakeScript(1, 300));
  int redistributed = 0;
  std::vector<Entry> snapshot;
  for (const Entry& e : log) {
    if (e.kind == 's') {
      snapshot.push_back(e);
      continue;
    }
    if (e.kind != 'e') {
      continue;
    }
    double share_sum = 0.0;
    bool pinned = false;
    for (const Entry& share : snapshot) {
      share_sum += share.b;
      pinned = pinned || share.a == 1.0;
    }
    for (const Entry& share : snapshot) {
      if (pinned && share.a < 1.0 && share.a > 4.0 * share.b / share_sum * (1 + 1e-9)) {
        ++redistributed;
        break;
      }
    }
    snapshot.clear();
  }
  EXPECT_GT(redistributed, 10);
}

}  // namespace
}  // namespace monosim
