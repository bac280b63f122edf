#include "src/simcore/audit.h"

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/network.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"
#include "tests/legacy_share_fakes.h"
#include "tests/maxmin_reference.h"

namespace monosim {
namespace {

TEST(SimAuditTest, SuiteListenerInstallsAuditAroundEveryTest) {
  // audit_listener.cc installs a report-mode audit before each test runs; if this
  // fails, the rest of the suite is running unaudited.
  EXPECT_NE(SimAudit::current(), nullptr);
}

TEST(SimAuditTest, CleanRunReportsNoViolationsButCountsChecks) {
  ScopedAudit scoped(ScopedAudit::kReport);
  Simulation sim;
  FluidServer server(&sim, "disk", ConstantCapacity(100.0));
  server.Submit(25.0, [] {}, /*weight=*/1.0);
  server.Submit(75.0, [] {}, /*weight=*/3.0);
  sim.Run();
  EXPECT_TRUE(scoped.audit().ok()) << scoped.audit().Summary();
  // The audit must actually have evaluated invariants, not vacuously passed.
  EXPECT_GT(scoped.audit().checks_run(), 0u);
}

// `pairs` as a flow snapshot (ids 1, 2, ...), every rate zero.
std::vector<NetworkFabricSim::FlowInfo> Flows(const std::vector<std::pair<int, int>>& pairs) {
  std::vector<NetworkFabricSim::FlowInfo> flows;
  for (const auto& [src, dst] : pairs) {
    flows.push_back(
        NetworkFabricSim::FlowInfo{flows.size() + 1, src, dst, monoutil::BytesPerSecond()});
  }
  return flows;
}

// The asymmetric fan-in the min-share model got wrong: m0->m1 twice, m0->m2,
// and m4->m2, on five 100 B/s NICs.
std::vector<NetworkFabricSim::FlowInfo> AsymmetricFanIn() {
  return Flows({{0, 1}, {0, 1}, {0, 2}, {4, 2}});
}

// True if `audit` flagged `invariant`; each such violation must name `source`.
bool Flagged(const SimAudit& audit, const std::string& invariant, const std::string& source) {
  bool flagged = false;
  for (const AuditViolation& violation : audit.violations()) {
    if (violation.invariant == invariant) {
      EXPECT_EQ(violation.source, source);
      flagged = true;
    }
  }
  return flagged;
}

TEST(SimAuditTest, DetectsLegacyEqualSplit) {
  // The historical bug — weights feed the capacity function but the split
  // ignores them — run through the share checks FluidServer audits itself
  // with. This is the bug class SimAudit exists for: every simulation
  // completes and every total is plausible; only the share proportions are
  // wrong.
  SimAudit audit;  // Standalone: sees only the fake's split.
  AuditFluidShares(audit, SimTime(), "disk", testutil::EqualSplitShares({1.0, 3.0}, 100.0),
                   100.0, FluidServer::kUnlimited);
  ASSERT_FALSE(audit.ok());
  EXPECT_TRUE(Flagged(audit, "weighted-share", "disk")) << audit.Summary();
}

TEST(SimAuditTest, EqualWeightsMaskTheLegacyBug) {
  // With equal weights the equal split *is* the weighted split, so the audit
  // stays clean — which is why the bug survived: every equal-weight test passed.
  SimAudit audit;
  AuditFluidShares(audit, SimTime(), "disk", testutil::EqualSplitShares({1.0, 1.0}, 100.0),
                   100.0, FluidServer::kUnlimited);
  EXPECT_TRUE(audit.ok()) << audit.Summary();
  EXPECT_GT(audit.checks_run(), 0u);
}

TEST(SimAuditTest, DetectsLegacyMinShareNetworkModel) {
  // The fabric twin of the equal-split bug: the old min-of-equal-shares model
  // never over-allocated a NIC, so the ingress/egress-within-bandwidth checks
  // could not see it — under-allocation (stranded capacity) passes bounds that
  // only cut from above. The max-min-bottleneck invariant bounds rates from
  // below: every flow must sit at a saturated NIC side where it has a maximal
  // share, which the stranded m4->m2 flow (50 instead of 200/3) does not.
  SimAudit audit;
  FabricSideTotals sides;
  AuditFabricAllocation(audit, SimTime(),
                        testutil::MinShareAllocation(AsymmetricFanIn(), 5, 100.0), 5,
                        monoutil::BytesPerSecond(100.0), sides);
  ASSERT_FALSE(audit.ok());
  EXPECT_FALSE(Flagged(audit, "ingress-within-bandwidth", "network-fabric"));
  EXPECT_FALSE(Flagged(audit, "egress-within-bandwidth", "network-fabric"));
  EXPECT_TRUE(Flagged(audit, "max-min-bottleneck", "network-fabric")) << audit.Summary();
}

TEST(SimAuditTest, SymmetricShufflesMaskTheLegacyNetworkBug) {
  // On a complete symmetric all-to-all shuffle the min-of-shares allocation *is*
  // max-min fair, so the certification passes — which is why the shortcut
  // survived: the paper's symmetric network-heavy workloads never exposed it.
  std::vector<std::pair<int, int>> all_to_all;
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src != dst) {
        all_to_all.emplace_back(src, dst);
      }
    }
  }
  SimAudit audit;
  FabricSideTotals sides;
  AuditFabricAllocation(audit, SimTime(),
                        testutil::MinShareAllocation(Flows(all_to_all), 4, 100.0), 4,
                        monoutil::BytesPerSecond(100.0), sides);
  EXPECT_TRUE(audit.ok()) << audit.Summary();
  EXPECT_GT(audit.checks_run(), 0u);
}

TEST(SimAuditTest, LegacyMinShareFakeReproducesTheStrandedRate) {
  // Documents what the old model computed on the asymmetric fan-in: the m4->m2
  // flow got min(100/1 egress, 100/2 ingress) = 50, where the reference max-min
  // solver (and the fabric) give it m2's leftover ingress, 100 - 100/3 = 200/3.
  const std::vector<NetworkFabricSim::FlowInfo> flows = AsymmetricFanIn();
  std::vector<testutil::ReferenceFlow> reference_flows;
  for (const NetworkFabricSim::FlowInfo& flow : flows) {
    reference_flows.push_back({flow.id, flow.src, flow.dst});
  }
  const auto reference = testutil::SolveMaxMinReference(reference_flows, 5, 100.0);
  const NetworkFabricSim::FlowInfo fan_in = testutil::MinShareAllocation(flows, 5, 100.0).back();
  ASSERT_EQ(fan_in.src, 4);
  EXPECT_NEAR(fan_in.rate.bps(), 50.0, 1e-9);
  EXPECT_NEAR(reference.at(fan_in.id), 200.0 / 3.0, 1e-9);
}

TEST(SimAuditTest, NestedAuditReceivesChecksAndRestoresOuter) {
  ScopedAudit outer(ScopedAudit::kReport);
  const uint64_t outer_checks_before = outer.audit().checks_run();
  {
    ScopedAudit inner(ScopedAudit::kReport);
    EXPECT_EQ(SimAudit::current(), &inner.audit());
    Simulation sim;
    FluidServer server(&sim, "disk", ConstantCapacity(10.0));
    server.Submit(10.0, [] {});
    sim.Run();
    EXPECT_GT(inner.audit().checks_run(), 0u);
  }
  EXPECT_EQ(SimAudit::current(), &outer.audit());
  EXPECT_EQ(outer.audit().checks_run(), outer_checks_before);
}

TEST(SimAuditTest, SummaryListsViolations) {
  SimAudit audit;  // Standalone, never installed.
  EXPECT_TRUE(audit.ok());
  audit.Report(monoutil::Seconds(1.5), "disk0", "byte-conservation", "submitted 10 != flushed 4 + dirty 5");
  EXPECT_FALSE(audit.ok());
  const std::string summary = audit.Summary();
  EXPECT_NE(summary.find("byte-conservation"), std::string::npos);
  EXPECT_NE(summary.find("disk0"), std::string::npos);
}

TEST(SimAuditTest, AuditRequestedByEnvParsesVariable) {
  unsetenv("MONO_SIM_AUDIT");
  EXPECT_FALSE(AuditRequestedByEnv());
  setenv("MONO_SIM_AUDIT", "0", 1);
  EXPECT_FALSE(AuditRequestedByEnv());
  setenv("MONO_SIM_AUDIT", "1", 1);
  EXPECT_TRUE(AuditRequestedByEnv());
  unsetenv("MONO_SIM_AUDIT");
}

}  // namespace
}  // namespace monosim
