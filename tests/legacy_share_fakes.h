// Test-only fakes of the two share policies the simulator used to get wrong.
// They exist so the audit tests can show the allocation checks that the
// components' AuditInvariants run (AuditFabricAllocation, AuditFluidShares)
// catching both bugs:
//
//  * MinShareAllocation: the fabric's original model. Each flow gets
//    min(bw / flows leaving its source, bw / flows entering its destination),
//    and capacity one side strands is never redistributed.
//  * EqualSplitShares: FluidServer's historical `cap / n` split, which ignores
//    the share weights.
#ifndef MONOTASKS_TESTS_LEGACY_SHARE_FAKES_H_
#define MONOTASKS_TESTS_LEGACY_SHARE_FAKES_H_

#include <algorithm>
#include <vector>

#include "src/cluster/network.h"
#include "src/simcore/fluid_server.h"

namespace monosim {
namespace testutil {

// `flows` with every rate replaced by its min-of-equal-shares rate.
inline std::vector<NetworkFabricSim::FlowInfo> MinShareAllocation(
    std::vector<NetworkFabricSim::FlowInfo> flows, int num_machines, double bandwidth) {
  std::vector<int> egress(static_cast<size_t>(num_machines), 0);
  std::vector<int> ingress(static_cast<size_t>(num_machines), 0);
  for (const NetworkFabricSim::FlowInfo& flow : flows) {
    ++egress[static_cast<size_t>(flow.src)];
    ++ingress[static_cast<size_t>(flow.dst)];
  }
  for (NetworkFabricSim::FlowInfo& flow : flows) {
    flow.rate = monoutil::BytesPerSecond(
        std::min(bandwidth / egress[static_cast<size_t>(flow.src)],
                 bandwidth / ingress[static_cast<size_t>(flow.dst)]));
  }
  return flows;
}

// One request per share weight (ids 1, 2, ...), each granted capacity / n.
inline std::vector<FluidServer::ShareInfo> EqualSplitShares(
    const std::vector<double>& share_weights, double capacity) {
  std::vector<FluidServer::ShareInfo> shares;
  for (const double weight : share_weights) {
    shares.push_back(FluidServer::ShareInfo{
        shares.size() + 1, capacity / static_cast<double>(share_weights.size()), weight});
  }
  return shares;
}

}  // namespace testutil
}  // namespace monosim

#endif  // MONOTASKS_TESTS_LEGACY_SHARE_FAKES_H_
