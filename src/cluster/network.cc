#include "src/cluster/network.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/tracer.h"

namespace monosim {
namespace {

constexpr double kCompletionEpsilonSeconds = 1e-9;

// How many fallback flushes may reuse a spanning closure before it is
// re-collected (see FlushPending): long enough to amortize the walk away,
// short enough that a fabric that splits into components soon stops paying
// for full-width solves.
constexpr int kSpanningRevalidateInterval = 63;

}  // namespace

NetworkFabricSim::NetworkFabricSim(Simulation* sim, int num_machines,
                                   monoutil::BytesPerSecond nic_bandwidth,
                                   monoutil::SimTime request_latency)
    : sim_(sim),
      nic_bandwidth_(nic_bandwidth),
      request_latency_(request_latency),
      ingress_flows_(static_cast<size_t>(num_machines)),
      egress_flows_(static_cast<size_t>(num_machines)),
      side_rate_sum_(static_cast<size_t>(2 * num_machines)),
      pair_count_(static_cast<size_t>(num_machines * num_machines), 0),
      side_visit_stamp_(static_cast<size_t>(2 * num_machines), 0),
      slot_stamp_(static_cast<size_t>(2 * num_machines), 0),
      slot_of_(static_cast<size_t>(2 * num_machines), 0),
      pair_stamp_(static_cast<size_t>(num_machines * num_machines), 0),
      pair_class_(static_cast<size_t>(num_machines * num_machines), 0),
      pair_rate_(static_cast<size_t>(num_machines * num_machines), 0.0),
      side_dirty_stamp_(static_cast<size_t>(2 * num_machines), 0),
      alive_(std::make_shared<bool>(true)),
      ingress_traces_(static_cast<size_t>(num_machines)),
      ingress_record_stamp_(static_cast<size_t>(num_machines), 0) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK(num_machines >= 1);
  MONO_CHECK(nic_bandwidth > monoutil::BytesPerSecond(0));
  side_accum_at_ = sim_->now();
  live_pairs_.reserve(pair_count_.size());
  sim_->RegisterAuditable(this);
}

NetworkFabricSim::~NetworkFabricSim() {
  // A still-registered end-of-epoch flush holds `this`; the shared flag turns it
  // into a no-op if the simulation outlives the fabric.
  *alive_ = false;
  sim_->UnregisterAuditable(this);
}

void AuditFabricAllocation(SimAudit& audit, SimTime now,
                           std::span<const NetworkFabricSim::FlowInfo> flows, int num_machines,
                           monoutil::BytesPerSecond bandwidth, FabricSideTotals& sides) {
  const char* source = "network-fabric";
  const double bw = bandwidth.bps();
  const double eps = 1e-9 * std::max(1.0, bw);
  const size_t machines = static_cast<size_t>(num_machines);
  sides.egress_sum.assign(machines, 0.0);
  sides.egress_max.assign(machines, 0.0);
  sides.ingress_sum.assign(machines, 0.0);
  sides.ingress_max.assign(machines, 0.0);
  for (const NetworkFabricSim::FlowInfo& flow : flows) {
    const size_t src = static_cast<size_t>(flow.src);
    const size_t dst = static_cast<size_t>(flow.dst);
    const double rate = flow.rate.bps();
    sides.egress_sum[src] += rate;
    sides.egress_max[src] = std::max(sides.egress_max[src], rate);
    sides.ingress_sum[dst] += rate;
    sides.ingress_max[dst] = std::max(sides.ingress_max[dst], rate);
  }
  // Each NIC is full duplex: the flows it carries in each direction cannot
  // together exceed its bandwidth. The predicates are folded into one boolean
  // per invariant and reported through a single ExpectLazy whose detail lambda
  // re-walks to name an offender — the sweep runs every epoch, so the passing
  // path must stay a tight loop, while the failing path can afford a second
  // pass.
  const auto within = [&](const std::vector<double>& sums, const char* invariant,
                          const char* direction) {
    bool ok = true;
    for (const double sum : sums) {
      ok = ok && sum <= bw + eps;
    }
    audit.ExpectLazy(ok, now, source, invariant, [&] {
      std::ostringstream d;
      for (size_t m = 0; m < machines; ++m) {
        if (sums[m] > bw + eps) {
          d << "machine " << m << " " << direction << " rate " << sums[m]
            << " exceeds NIC bandwidth " << bandwidth;
          break;
        }
      }
      return d.str();
    });
  };
  within(sides.ingress_sum, "ingress-within-bandwidth", "ingress");
  within(sides.egress_sum, "egress-within-bandwidth", "egress");

  // Max-min certification: an allocation is max-min fair iff every flow crosses at
  // least one saturated NIC side on which it has a maximal share. This bounds the
  // rates from *below* — the bandwidth checks above only bound them from above, so
  // a work-conservation bug (stranded capacity) passes them silently. Batched and
  // patched solutions alike must pass: a patch is only taken when it provably
  // leaves every flow pinned to a saturated side (see TryPatchArrival /
  // CanPatchDeparture), so this certification is what pins the pruning logic.
  const auto certified = [&](const NetworkFabricSim::FlowInfo& flow) {
    const size_t src = static_cast<size_t>(flow.src);
    const size_t dst = static_cast<size_t>(flow.dst);
    return (sides.egress_sum[src] >= bw - eps &&
            flow.rate.bps() >= sides.egress_max[src] - eps) ||
           (sides.ingress_sum[dst] >= bw - eps &&
            flow.rate.bps() >= sides.ingress_max[dst] - eps);
  };
  bool all_certified = true;
  for (const NetworkFabricSim::FlowInfo& flow : flows) {
    all_certified = all_certified && certified(flow);
  }
  audit.ExpectLazy(all_certified, now, source, "max-min-bottleneck", [&] {
    std::ostringstream d;
    for (const NetworkFabricSim::FlowInfo& flow : flows) {
      if (!certified(flow)) {
        const size_t src = static_cast<size_t>(flow.src);
        const size_t dst = static_cast<size_t>(flow.dst);
        d << "flow " << flow.id << " (" << flow.src << "->" << flow.dst << ") rate "
          << flow.rate << " is not bottlenecked at a saturated NIC (egress sum "
          << sides.egress_sum[src] << " max " << sides.egress_max[src] << ", ingress sum "
          << sides.ingress_sum[dst] << " max " << sides.ingress_max[dst] << ", bandwidth "
          << bandwidth << "): capacity is stranded";
        break;
      }
    }
    return d.str();
  });
}

void NetworkFabricSim::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  // Certify the batched solution, never the mid-epoch transient: any still-pending
  // arrivals/departures are solved first (no-op when the fabric is clean, which is
  // always the case when the simulation's end-of-epoch sweep gets here).
  FlushPendingConst();
  const SimTime now = sim_->now();
  const char* source = "network-fabric";
  const double eps = 1e-9 * std::max(1.0, nic_bandwidth_.bps());

  // One contiguous walk over the id-ordered flow list fills the allocation
  // snapshot and evaluates the per-flow bookkeeping predicates; each flow is
  // dereferenced once. As in AuditFabricAllocation, each invariant is one
  // boolean reported through a single ExpectLazy. The sweep runs every
  // epoch; the scratch members are persistent so it costs a fill, not an
  // allocation.
  std::vector<FlowInfo>& snapshot = audit_flows_;
  snapshot.clear();
  std::vector<int>& pair_recount = audit_pair_count_;
  pair_recount.assign(pair_count_.size(), 0);
  bool ids_ordered = true;
  bool rates_nonneg = true;
  FlowId last_id = 0;
  for (const Flow* flow : flows_by_id_) {
    ids_ordered = ids_ordered && flow->id > last_id;
    last_id = flow->id;
    snapshot.push_back(FlowInfo{flow->id, flow->src, flow->dst, flow->rate});
    rates_nonneg = rates_nonneg && flow->rate.bps() >= 0.0;
    ++pair_recount[static_cast<size_t>(PairKey(*flow))];
  }
  audit.ExpectLazy(rates_nonneg, now, source, "flow-rate-non-negative", [&] {
    std::ostringstream d;
    for (const Flow* flow : flows_by_id_) {
      if (flow->rate < monoutil::BytesPerSecond(0)) {
        d << "flow " << flow->id << " has rate " << flow->rate;
        break;
      }
    }
    return d.str();
  });
  audit.ExpectLazy(ids_ordered, now, source, "flow-list-ordered", [&] {
    std::ostringstream d;
    d << "flow registry (" << flows_by_id_.size()
      << " entries) is not in strictly ascending id order";
    return d.str();
  });
  AuditFabricAllocation(audit, now, snapshot, num_machines(), nic_bandwidth_, audit_sides_);

  // The incrementally-maintained side rate sums must match the ground truth
  // recomputed from the snapshot, or the solver's bases and the patches'
  // decisions drift.
  const FabricSideTotals& sides = audit_sides_;
  const auto egress_rate_sum = [&](int m) {
    return side_rate_sum_[static_cast<size_t>(EgressKey(m))];
  };
  const auto ingress_rate_sum = [&](int m) {
    return side_rate_sum_[static_cast<size_t>(IngressKey(m))];
  };
  const auto side_sums_match = [&](int m) {
    const auto mu = static_cast<size_t>(m);
    return std::abs(egress_rate_sum(m).bps() - sides.egress_sum[mu]) <= eps &&
           std::abs(ingress_rate_sum(m).bps() - sides.ingress_sum[mu]) <= eps;
  };
  size_t listed_ingress = 0;
  size_t listed_egress = 0;
  bool side_sums_ok = true;
  for (int m = 0; m < num_machines(); ++m) {
    listed_ingress += ingress_flows_[static_cast<size_t>(m)].size();
    listed_egress += egress_flows_[static_cast<size_t>(m)].size();
    side_sums_ok = side_sums_ok && side_sums_match(m);
  }
  audit.ExpectLazy(side_sums_ok, now, source, "side-rate-sum", [&] {
    std::ostringstream d;
    for (int m = 0; m < num_machines(); ++m) {
      if (!side_sums_match(m)) {
        const auto mu = static_cast<size_t>(m);
        d << "machine " << m << ": maintained rate sums (" << egress_rate_sum(m)
          << " egress, " << ingress_rate_sum(m) << " ingress) drifted from totals ("
          << sides.egress_sum[mu] << ", " << sides.ingress_sum[mu] << ")";
        break;
      }
    }
    return d.str();
  });
  // The solver reads pair multiplicities and the live-pair list instead of
  // walking flows, so both must match a recount of the registry. Listed pairs
  // flip their recount negative, so a pair listed twice (or listed with no
  // flows) fails on the first pass, and one left unlisted keeps a positive
  // recount that cannot match its (non-negative) maintained count.
  bool pairs_ok = true;
  for (const int key : live_pairs_) {
    int& count = pair_recount[static_cast<size_t>(key)];
    pairs_ok = pairs_ok && count > 0;
    count = -count;
  }
  for (size_t key = 0; key < pair_count_.size(); ++key) {
    pairs_ok = pairs_ok && pair_count_[key] == -pair_recount[key];
  }
  audit.ExpectLazy(pairs_ok, now, source, "pair-class-count", [&] {
    std::ostringstream d;
    for (size_t key = 0; key < pair_count_.size(); ++key) {
      const int listed = static_cast<int>(
          std::count(live_pairs_.begin(), live_pairs_.end(), static_cast<int>(key)));
      const int recount = std::abs(pair_recount[key]);
      if (pair_count_[key] != recount || listed != (recount > 0 ? 1 : 0)) {
        const auto machines = static_cast<size_t>(num_machines());
        d << "pair " << key / machines << "->" << key % machines << ": maintained count "
          << pair_count_[key] << ", registry holds " << recount << ", listed " << listed
          << " time(s) among " << live_pairs_.size() << " live pairs";
        break;
      }
    }
    return d.str();
  });
  audit.ExpectLazy(listed_ingress == flows_by_id_.size(), now, source, "flow-registry", [&] {
    std::ostringstream d;
    d << "per-machine ingress lists hold " << listed_ingress << " flows, registry holds "
      << flows_by_id_.size();
    return d.str();
  });
  audit.ExpectLazy(listed_egress == flows_by_id_.size(), now, source, "flow-registry-egress", [&] {
    std::ostringstream d;
    d << "per-machine egress lists hold " << listed_egress << " flows, registry holds "
      << flows_by_id_.size();
    return d.str();
  });

  if (phase == AuditPhase::kDrain) {
    audit.ExpectLazy(flows_by_id_.empty(), now, source, "drained", [&] {
      std::ostringstream d;
      d << flows_by_id_.size() << " flow(s) still active after the event queue drained";
      return d.str();
    });
  }
}

NetworkFabricSim::Flow* NetworkFabricSim::AllocFlow() {
  if (free_flows_.empty()) {
    constexpr size_t kFlowsPerBlock = 128;
    flow_blocks_.push_back(std::make_unique<Flow[]>(kFlowsPerBlock));
    Flow* block = flow_blocks_.back().get();
    // Pushed back-to-front so the LIFO free list hands them out in address
    // order within the block (pure locality; no ordering depends on it).
    for (size_t i = kFlowsPerBlock; i > 0; --i) {
      free_flows_.push_back(&block[i - 1]);
    }
  }
  Flow* flow = free_flows_.back();
  free_flows_.pop_back();
  // Reset what recycling could leak into solver decisions: the stamp (so a
  // stale membership mark can never alias a live flush), the rate the
  // progress math starts from, and the completion key (none until the first
  // rate is applied).
  flow->rate = monoutil::BytesPerSecond();
  flow->predicted_done = SimTime(-1.0);
  flow->visit_stamp = 0;
  return flow;
}

NetworkFabricSim::Flow* NetworkFabricSim::FindFlow(FlowId id) const {
  const auto it = std::lower_bound(flows_by_id_.begin(), flows_by_id_.end(), id,
                                   [](const Flow* f, FlowId v) { return f->id < v; });
  return (it != flows_by_id_.end() && (*it)->id == id) ? *it : nullptr;
}

NetworkFabricSim::FlowId NetworkFabricSim::StartFlowImpl(int src, int dst,
                                                         monoutil::Bytes bytes,
                                                         InlineCallback&& done) {
  MONO_CHECK(src >= 0 && src < num_machines());
  MONO_CHECK(dst >= 0 && dst < num_machines());
  MONO_CHECK_MSG(src != dst, "local transfers must not traverse the fabric");
  MONO_CHECK(bytes >= monoutil::Bytes(0));
  MONO_CHECK(static_cast<bool>(done));

  const FlowId id = next_id_++;
  Flow* raw = AllocFlow();
  raw->id = id;
  raw->src = src;
  raw->dst = dst;
  raw->remaining = static_cast<double>(bytes.count());
  raw->last_update = sim_->now();
  raw->done = std::move(done);
  flows_by_id_.push_back(raw);  // Ids are monotonic: the back keeps the order.
  const int pair = PairKey(*raw);
  if (pair_count_[static_cast<size_t>(pair)]++ == 0) {
    live_pairs_.push_back(pair);
  }

  // Close out the interval ending now before the busy-side set grows. The new
  // flow starts at rate 0, so the side rate sums and saturation are untouched.
  AccumulateSideTime(sim_->now());
  std::vector<Flow*>& egress = egress_flows_[static_cast<size_t>(src)];
  std::vector<Flow*>& ingress = ingress_flows_[static_cast<size_t>(dst)];
  if (egress.empty()) {
    ++busy_side_count_;
  }
  if (ingress.empty()) {
    ++busy_side_count_;
  }
  egress.push_back(raw);
  ingress.push_back(raw);
  total_bytes_ += bytes;

  if (TryPatchArrival(raw)) {
    ++stats_.patched_arrivals;
  } else {
    ++stats_.batched_changes;
    MarkDirty(src, dst);
  }
  return id;
}

void NetworkFabricSim::SendControlImpl(int src, int dst, InlineCallback&& deliver) {
  MONO_CHECK(src >= 0 && src < num_machines());
  MONO_CHECK(dst >= 0 && dst < num_machines());
  sim_->ScheduleAfter(request_latency_, std::move(deliver), "net-request");
}

void NetworkFabricSim::MarkDirty(int src, int dst) {
  MarkSideDirty(EgressKey(src));
  MarkSideDirty(IngressKey(dst));
  if (!flush_registered_) {
    flush_registered_ = true;
    sim_->AtEpochEnd([this, alive = alive_] {
      if (!*alive) {
        return;
      }
      flush_registered_ = false;
      FlushPending();
    });
  }
}

void NetworkFabricSim::MarkSideDirty(int side_key) {
  if (side_dirty_stamp_[static_cast<size_t>(side_key)] != dirty_stamp_) {
    side_dirty_stamp_[static_cast<size_t>(side_key)] = dirty_stamp_;
    dirty_sides_.push_back(side_key);
  }
}

bool NetworkFabricSim::TryPatchArrival(Flow* flow) {
  if (!dirty_sides_.empty()) {
    return false;  // Rates are stale mid-epoch; local reasoning would be unsound.
  }
  const int egress = EgressKey(flow->src);
  const int ingress = IngressKey(flow->dst);
  const double bw = nic_bandwidth_.bps();
  const double eps = 1e-9 * std::max(1.0, bw);
  const double free_egress = bw - side_rate_sum_[static_cast<size_t>(egress)].bps();
  const double free_ingress = bw - side_rate_sum_[static_cast<size_t>(ingress)].bps();
  const double rate = std::min(free_egress, free_ingress);
  if (rate <= eps) {
    return false;  // A side is already saturated: its flows would re-level.
  }
  // The new flow saturates each side whose free capacity it consumes entirely; on
  // such a side it must not be out-ranked, or max-min would shrink the larger
  // flow in its favor (and cascade through that flow's other side). A side left
  // unsaturated carried no bottlenecked flow (it had free capacity), so raising
  // its sum constrains nobody. The patched flow itself ends at the top of a
  // saturated side, exactly what the max-min-bottleneck audit certifies. (The
  // new flow is already listed on both sides, at rate 0, so it never decides
  // the maximum.)
  if (free_egress <= rate + eps && SideMaxShare(egress) > rate + eps) {
    return false;
  }
  if (free_ingress <= rate + eps && SideMaxShare(ingress) > rate + eps) {
    return false;
  }
  ApplyRate(flow, monoutil::BytesPerSecond(rate));
  UpdateCompletionTimer();
  RecordIngressTouched(flow->dst);
  return true;
}

bool NetworkFabricSim::CanPatchDeparture(const Flow& flow) const {
  if (!dirty_sides_.empty()) {
    return false;  // Rates are stale mid-epoch; local reasoning would be unsound.
  }
  const double bw = nic_bandwidth_.bps();
  const double eps = 1e-9 * std::max(1.0, bw);
  for (const int key : {EgressKey(flow.src), IngressKey(flow.dst)}) {
    if (side_rate_sum_[static_cast<size_t>(key)].bps() < bw - eps) {
      continue;  // Unsaturated side: nobody is pinned here, freeing more changes nothing.
    }
    // Saturated side: the departure is invisible only if every remaining flow has
    // a strictly smaller share — each is then bottlenecked (maximal) at its
    // *other*, still-saturated side and cannot rise into the freed capacity.
    for (const Flow* other : SideFlows(key)) {
      if (other->id != flow.id && other->rate.bps() >= flow.rate.bps() - eps) {
        return false;
      }
    }
  }
  return true;
}

double NetworkFabricSim::SideMaxShare(int key) const {
  double top = 0.0;
  for (const Flow* flow : SideFlows(key)) {
    top = std::max(top, flow->rate.bps());
  }
  return top;
}

void NetworkFabricSim::CollectFromSides(const std::vector<int>& seed_sides,
                                        std::vector<Flow*>* component) {
  ++visit_stamp_;
  component->clear();
  // A flow links its source's egress side to its destination's ingress side; the
  // component is the transitive closure over those links, seeded from every dirty
  // side. Stamps (not per-call bitmaps) keep repeat collections allocation-light.
  pending_sides_.clear();
  auto push_side = [&](int key) {
    if (side_visit_stamp_[static_cast<size_t>(key)] != visit_stamp_) {
      side_visit_stamp_[static_cast<size_t>(key)] = visit_stamp_;
      pending_sides_.push_back(key);
    }
  };
  for (const int key : seed_sides) {
    push_side(key);
  }
  while (!pending_sides_.empty()) {
    const int key = pending_sides_.back();
    pending_sides_.pop_back();
    for (Flow* flow : SideFlows(key)) {
      if (flow->visit_stamp == visit_stamp_) {
        continue;
      }
      flow->visit_stamp = visit_stamp_;
      component->push_back(flow);
      push_side(EgressKey(flow->src));
      push_side(IngressKey(flow->dst));
    }
  }
}

void NetworkFabricSim::GrowSlotArrays(size_t slots) {
  if (slots > slot_consumed_.size()) {
    slot_consumed_.resize(slots);
    slot_unfrozen_.resize(slots);
    slot_cap_.resize(slots);
    slot_base_.resize(slots);
    slot_unaffected_max_.resize(slots);
    slot_level_.resize(slots);
    slot_total_.resize(slots);
    slot_max_affected_.resize(slots);
    slot_keys_.resize(slots);
  }
}

void NetworkFabricSim::SolveMaxMin(const std::vector<Flow*>& component, bool spanning) {
  class_key_.clear();
  class_count_.clear();
  class_egress_.clear();
  class_ingress_.clear();
  const auto add_class = [&](int key, int count, int egress_slot, int ingress_slot) {
    class_key_.push_back(key);
    class_count_.push_back(count);
    class_egress_.push_back(egress_slot);
    class_ingress_.push_back(ingress_slot);
    pair_rate_[static_cast<size_t>(key)] = -1.0;  // Unfrozen.
  };
  if (spanning) {
    // Spanning solve over the whole fabric (the caller vouches the solve
    // covers every live flow): the classes are exactly the live pairs, and
    // each NIC side is its own slot, slot == side key, so neither a flow nor
    // the stamped side->slot map is touched. Sides with no flows cost nothing
    // beyond their array entry: a zero degree parks their cap at +inf
    // ((bandwidth - 0) / 0 in IEEE terms), so the bottleneck scan skips them
    // the same way it skips exhausted slots. With every flow in the solve, no
    // side carries fixed consumption: every base is zero.
    num_slots_ = static_cast<int>(side_rate_sum_.size());
    const auto ns = static_cast<size_t>(num_slots_);
    GrowSlotArrays(ns);
    std::fill(slot_unfrozen_.begin(), slot_unfrozen_.begin() + num_slots_, 0);
    std::fill(slot_consumed_.begin(), slot_consumed_.begin() + num_slots_, 0.0);
    const int machines = num_machines();
    for (const int key : live_pairs_) {
      const int count = pair_count_[static_cast<size_t>(key)];
      const int e = EgressKey(key / machines);
      const int g = IngressKey(key % machines);
      add_class(key, count, e, g);
      slot_unfrozen_[static_cast<size_t>(e)] += count;
      slot_unfrozen_[static_cast<size_t>(g)] += count;
    }
    FillClasses();
    return;
  }
  // Dense table of just the NIC sides this component touches. The id-sorted
  // component is grouped into pair classes in first-seen order, and a new
  // class numbers its egress slot, then its ingress slot — the order a
  // per-flow walk would number them in. The side-key -> slot and pair-key ->
  // class maps are stamped per solve, so repeat solves allocate nothing.
  ++solve_stamp_;
  num_slots_ = 0;
  const auto slot = [&](int key) {
    const auto k = static_cast<size_t>(key);
    if (slot_stamp_[k] != solve_stamp_) {
      slot_stamp_[k] = solve_stamp_;
      const int s = num_slots_++;
      slot_of_[k] = s;
      GrowSlotArrays(static_cast<size_t>(num_slots_));
      slot_unfrozen_[static_cast<size_t>(s)] = 0;
      slot_base_[static_cast<size_t>(s)] = 0.0;  // Affected-rate sum until the base pass below.
      slot_level_[static_cast<size_t>(s)] = std::numeric_limits<double>::infinity();
      slot_keys_[static_cast<size_t>(s)] = key;
    }
    return slot_of_[k];
  };
  for (const Flow* flow : component) {
    const auto pair = static_cast<size_t>(PairKey(*flow));
    if (pair_stamp_[pair] != solve_stamp_) {
      pair_stamp_[pair] = solve_stamp_;
      pair_class_[pair] = static_cast<int>(class_key_.size());
      const int e = slot(EgressKey(flow->src));
      const int g = slot(IngressKey(flow->dst));
      add_class(static_cast<int>(pair), 0, e, g);
    }
    const auto c = static_cast<size_t>(pair_class_[pair]);
    ++class_count_[c];
    for (const int s : {class_egress_[c], class_ingress_[c]}) {
      ++slot_unfrozen_[static_cast<size_t>(s)];
      slot_base_[static_cast<size_t>(s)] += flow->rate.bps();
    }
  }
  // Flows outside the component keep their current rates: they reduce the
  // capacity the progressive fill distributes through their side. Their sum is
  // derived from the side's incrementally-maintained rate sum minus the
  // component flows' (still-old) rates, so no flow outside the component is
  // ever dereferenced here. A side the component covers completely gets a base
  // of exactly 0.0 — not the FP residue of the subtraction — so a full-closure
  // solve reproduces a from-scratch pass bit for bit (and ApplyRate's
  // skip-unchanged test keeps working across re-solves).
  for (int s = 0; s < num_slots_; ++s) {
    const auto su = static_cast<size_t>(s);
    const int key = slot_keys_[su];
    const double base =
        SideFlows(key).size() == static_cast<size_t>(slot_unfrozen_[su])
            ? 0.0
            : std::max(0.0, side_rate_sum_[static_cast<size_t>(key)].bps() - slot_base_[su]);
    slot_base_[su] = base;
    slot_consumed_[su] = base;
  }
  FillClasses();
}

void NetworkFabricSim::FillClasses() {
  // Slot -> class-index adjacency in CSR form (offsets plus one flat array) —
  // the freeze loop below walks it side by side, and a flat span beats a
  // vector-of-vectors walk. Built with a counting pass, a prefix sum, and a
  // fill pass.
  const size_t num_classes = class_key_.size();
  const auto ns = static_cast<size_t>(num_slots_);
  slot_adj_offset_.assign(ns + 1, 0);
  for (size_t c = 0; c < num_classes; ++c) {
    ++slot_adj_offset_[static_cast<size_t>(class_egress_[c]) + 1];
    ++slot_adj_offset_[static_cast<size_t>(class_ingress_[c]) + 1];
  }
  for (size_t s = 0; s < ns; ++s) {
    slot_adj_offset_[s + 1] += slot_adj_offset_[s];
  }
  slot_adj_.resize(2 * num_classes);
  slot_cursor_.assign(slot_adj_offset_.begin(), slot_adj_offset_.end() - 1);
  for (size_t c = 0; c < num_classes; ++c) {
    for (const int s : {class_egress_[c], class_ingress_[c]}) {
      slot_adj_[static_cast<size_t>(slot_cursor_[static_cast<size_t>(s)]++)] =
          static_cast<int>(c);
    }
  }

  // Progressive filling: each side carries the common fill level at which it
  // would saturate, cached in slot_cap_ and re-derived only when a frozen class
  // changes its consumption. Each round scans the flat cap array for the
  // minimum (cap, slot) — the next bottleneck — and freezes that side's
  // remaining classes at the running level. With dozens of sides the scan is a
  // handful of cache lines, and it selects exactly what an ordered frontier
  // would pop, so the freeze order (and every FP result) is as deterministic.
  // Exhausted slots park their cap at infinity, keeping the scan a bare
  // load-and-compare.
  const double bw = nic_bandwidth_.bps();
  for (size_t s = 0; s < ns; ++s) {
    slot_cap_[s] = (bw - slot_consumed_[s]) / slot_unfrozen_[s];
  }
  size_t remaining = num_classes;
  double level = 0.0;
  while (remaining > 0) {
    // Two-stride argmin: each stride keeps its own first strict minimum, so
    // the two chains run independently of each other's comparison results;
    // the merge picks the lower cap and breaks ties toward the smaller slot,
    // which is exactly the single-pass first-strict-min this replaces.
    int s0 = -1;
    int s1 = -1;
    double best0 = std::numeric_limits<double>::infinity();
    double best1 = std::numeric_limits<double>::infinity();
    for (int c = 0; c + 1 < num_slots_; c += 2) {
      if (slot_cap_[static_cast<size_t>(c)] < best0) {
        best0 = slot_cap_[static_cast<size_t>(c)];
        s0 = c;
      }
      if (slot_cap_[static_cast<size_t>(c) + 1] < best1) {
        best1 = slot_cap_[static_cast<size_t>(c) + 1];
        s1 = c + 1;
      }
    }
    if ((num_slots_ & 1) != 0 && slot_cap_[ns - 1] < best0) {
      best0 = slot_cap_[ns - 1];
      s0 = num_slots_ - 1;
    }
    const bool take1 = best1 < best0 || (best1 == best0 && s1 >= 0 && s1 < s0);
    const int s = take1 ? s1 : s0;
    const double best = take1 ? best1 : best0;
    MONO_CHECK_MSG(s >= 0, "progressive filling stalled");
    // Caps are non-decreasing as flows freeze elsewhere, so the chosen side
    // saturates at cap >= level; the max() only guards FP rounding.
    level = std::max(level, best);
    slot_level_[static_cast<size_t>(s)] = level;
    for (int a = slot_adj_offset_[static_cast<size_t>(s)];
         a < slot_adj_offset_[static_cast<size_t>(s) + 1]; ++a) {
      const auto c = static_cast<size_t>(slot_adj_[static_cast<size_t>(a)]);
      double& rate = pair_rate_[static_cast<size_t>(class_key_[c])];
      if (rate >= 0.0) {
        continue;  // Frozen at its other side in an earlier round.
      }
      rate = level;
      --remaining;
      // The frozen class now consumes `level` of its other side per flow, for
      // good; that side saturates later (or empties), so re-derive its cached
      // cap. No other class on this side shares that other side, so adding
      // `level` once per flow reproduces the per-flow sums bit for bit.
      const auto o = static_cast<size_t>(class_egress_[c] == s ? class_ingress_[c]
                                                               : class_egress_[c]);
      const int count = class_count_[c];
      for (int i = 0; i < count; ++i) {
        slot_consumed_[o] += level;
      }
      slot_unfrozen_[o] -= count;
      slot_cap_[o] = slot_unfrozen_[o] > 0 ? (bw - slot_consumed_[o]) / slot_unfrozen_[o]
                                           : std::numeric_limits<double>::infinity();
    }
    slot_unfrozen_[static_cast<size_t>(s)] = 0;
    slot_cap_[static_cast<size_t>(s)] = std::numeric_limits<double>::infinity();
  }
}

void NetworkFabricSim::RecordSlotTotals(const std::vector<Flow*>& component) {
  // Leave each side's post-solve totals behind for the boundary check: base
  // consumption plus the freshly solved rates, and the top solved share. Only
  // the affected-set path pays for this — fallback solves have no boundary to
  // check. The totals are summed per flow in ascending id, as the solve's
  // inputs were.
  for (size_t s = 0; s < static_cast<size_t>(num_slots_); ++s) {
    slot_total_[s] = slot_base_[s];
    slot_max_affected_[s] = 0.0;
  }
  for (const Flow* flow : component) {
    const auto pair = static_cast<size_t>(PairKey(*flow));
    const auto c = static_cast<size_t>(pair_class_[pair]);
    const double rate = pair_rate_[pair];
    for (const int s : {class_egress_[c], class_ingress_[c]}) {
      slot_total_[static_cast<size_t>(s)] += rate;
      slot_max_affected_[static_cast<size_t>(s)] =
          std::max(slot_max_affected_[static_cast<size_t>(s)], rate);
    }
  }
}

bool NetworkFabricSim::CertifiedAfterSolve(const Flow& flow, double eps) const {
  for (const int key : {EgressKey(flow.src), IngressKey(flow.dst)}) {
    const auto k = static_cast<size_t>(key);
    double sum;
    double top;
    if (slot_stamp_[k] == solve_stamp_) {
      const auto s = static_cast<size_t>(slot_of_[k]);
      sum = slot_total_[s];
      top = std::max(slot_max_affected_[s], slot_unaffected_max_[s]);
    } else {
      sum = side_rate_sum_[k].bps();
      if (sum < nic_bandwidth_.bps() - eps) {
        continue;  // Unsaturated: certifies nobody, so skip the walk for its maximum.
      }
      top = SideMaxShare(key);
    }
    if (sum >= nic_bandwidth_.bps() - eps && flow.rate.bps() >= top - eps) {
      return true;
    }
  }
  return false;
}

bool NetworkFabricSim::SubSolveCertified(double eps) {
  // The sub-solve is the true max-min allocation only if every fixed flow stays
  // certified. A fixed flow is proven mis-ranked when it out-ranks the new
  // level of a side that froze flows (the solve wrongly treated its over-sized
  // share as immovable), or when no side certifies its rate any more (capacity
  // it should claim was freed, or the side whose level pinned it moved). No
  // such flow means the allocation passes exactly the certification the audit
  // sweep checks — sound by the same iff-characterization of max-min fairness.
  //
  // Both passes walk the affected sides' flow lists; affected flows carry the
  // flush's visit stamp (their rates are still the pre-solve ones and are never
  // read), fixed flows' rates are current. Every solve slot is an affected
  // side, so the first pass fills slot_unaffected_max_ for all of them.
  const double bw = nic_bandwidth_.bps();
  for (const int key : affected_sides_) {
    if (slot_stamp_[static_cast<size_t>(key)] != solve_stamp_) {
      continue;  // A changed side no flow crosses any more (e.g. emptied by a departure).
    }
    double unaffected_max = 0.0;
    for (const Flow* flow : SideFlows(key)) {
      if (flow->visit_stamp != visit_stamp_) {
        unaffected_max = std::max(unaffected_max, flow->rate.bps());
      }
    }
    slot_unaffected_max_[static_cast<size_t>(slot_of_[static_cast<size_t>(key)])] =
        unaffected_max;
  }
  for (const int key : affected_sides_) {
    if (slot_stamp_[static_cast<size_t>(key)] != solve_stamp_) {
      continue;
    }
    const auto s = static_cast<size_t>(slot_of_[static_cast<size_t>(key)]);
    const double level = slot_level_[s];
    const bool saturated = slot_total_[s] >= bw - eps;
    const double top = std::max(slot_max_affected_[s], slot_unaffected_max_[s]);
    for (const Flow* flow : SideFlows(key)) {
      if (flow->visit_stamp == visit_stamp_) {
        continue;
      }
      const double rate = flow->rate.bps();
      if (rate <= level + eps && saturated && rate >= top - eps) {
        continue;  // Certified at this side.
      }
      if (rate > level + eps || !CertifiedAfterSolve(*flow, eps)) {
        return false;
      }
    }
  }
  return true;
}

void NetworkFabricSim::SortByFlowId(std::vector<Flow*>* flows) {
  sort_scratch_.clear();
  for (Flow* flow : *flows) {
    sort_scratch_.emplace_back(flow->id, flow);
  }
  std::sort(sort_scratch_.begin(), sort_scratch_.end());
  for (size_t i = 0; i < flows->size(); ++i) {
    (*flows)[i] = sort_scratch_[i].second;
  }
}

void NetworkFabricSim::ApplyRate(Flow* flow, monoutil::BytesPerSecond new_rate) {
  MONO_CHECK(new_rate > monoutil::BytesPerSecond(0));
  if (new_rate == flow->rate && flow->predicted_done >= SimTime()) {
    // Unchanged rate: progress stays linear and the completion key is still
    // exact, so leave the flow untouched.
    return;
  }
  // Advance progress under the old rate, then apply the new share.
  const SimTime now = sim_->now();
  const SimTime dt = now - flow->last_update;
  if (dt > SimTime()) {
    flow->remaining = std::max(0.0, flow->remaining - flow->rate.bps() * dt.seconds());
  }
  flow->last_update = now;
  if (new_rate != flow->rate) {
    ++stats_.rate_changes;
    AccumulateSideTime(now);
    // Move the flow's share between both sides' rate sums, tracking each
    // side's saturation transition as its sum moves.
    for (const int key : {EgressKey(flow->src), IngressKey(flow->dst)}) {
      const bool was_saturated = SideSaturated(key);
      monoutil::BytesPerSecond& sum = side_rate_sum_[static_cast<size_t>(key)];
      sum -= flow->rate;
      sum += new_rate;
      if (SideSaturated(key) != was_saturated) {
        saturated_side_count_ += was_saturated ? -1 : 1;
      }
    }
    flow->rate = new_rate;
  }

  // Re-key the predicted completion; the caller refreshes the single timer
  // event once its batch of rate changes is applied. A key that drops below
  // the cached earliest replaces it; the cached flow itself moving later
  // leaves the earliest unknown until the next rescan.
  const SimTime old_done = flow->predicted_done;
  flow->predicted_done = now + SimTime(flow->remaining / flow->rate.bps());
  if (!earliest_valid_) {
    return;
  }
  if (flow == earliest_) {
    earliest_valid_ = flow->predicted_done <= old_done;
  } else if (earliest_ == nullptr || flow->predicted_done < earliest_->predicted_done ||
             (flow->predicted_done == earliest_->predicted_done && flow->id < earliest_->id)) {
    earliest_ = flow;
  }
}

const NetworkFabricSim::Flow* NetworkFabricSim::EarliestDue() {
  if (!earliest_valid_) {
    // The registry is in ascending id order, so the first strict minimum
    // breaks time ties toward the smaller id.
    earliest_ = nullptr;
    for (const Flow* flow : flows_by_id_) {
      if (flow->predicted_done >= SimTime() &&
          (earliest_ == nullptr || flow->predicted_done < earliest_->predicted_done)) {
        earliest_ = flow;
      }
    }
    earliest_valid_ = true;
  }
  return earliest_;
}

void NetworkFabricSim::UpdateCompletionTimer() {
  const Flow* earliest = EarliestDue();
  const SimTime want = earliest == nullptr ? SimTime(-1.0) : earliest->predicted_done;
  if (want == next_completion_time_ && (want < SimTime() || next_completion_.pending())) {
    return;  // The timer already points at the minimum.
  }
  next_completion_.Cancel();
  next_completion_time_ = want;
  if (want >= SimTime()) {
    next_completion_ = sim_->ScheduleAt(
        want,
        [this, alive = alive_] {
          if (*alive) {
            OnNextCompletion();
          }
        },
        "flow-complete");
  }
}

void NetworkFabricSim::OnNextCompletion() {
  // Complete every flow due now, earliest (time, id) first. Completion callbacks
  // may start replacement flows whose patches re-key the earliest mid-loop, so
  // it is re-read each iteration.
  const SimTime now = sim_->now();
  for (const Flow* due = EarliestDue(); due != nullptr && due->predicted_done <= now;
       due = EarliestDue()) {
    OnFlowComplete(due->id);
  }
  UpdateCompletionTimer();
}

void NetworkFabricSim::FlushPending() {
  if (dirty_sides_.empty()) {
    return;
  }
  ++stats_.epochs_flushed;
  touched_scratch_.clear();
  for (const int key : dirty_sides_) {
    if (key % 2 == 1) {
      touched_scratch_.push_back(key / 2);  // Recorded even if the side is now empty.
    }
  }

  const double bw = nic_bandwidth_.bps();
  const double eps = 1e-9 * std::max(1.0, bw);
  // Cascade gate, checked before any seeding work: when a changed side is
  // saturated, the batched arrivals and departures re-level it, every flow
  // crossing it adjusts, and the adjustment propagates through those flows'
  // other sides — in a loaded fabric the whole component re-solves and the
  // affected-set attempt is a wasted round. Only genuinely local changes
  // (every dirty side running below capacity, so existing shares can stand)
  // pay for seeding an affected set; saturated-side churn goes straight to
  // the full-closure solve without stamping a single flow. A dirty side's
  // *neighbors* may still be saturated — the sub-solve handles that (flows
  // pinned there hold their level) and the boundary check keeps it honest.
  bool try_local = true;
  for (const int key : dirty_sides_) {
    if (side_rate_sum_[static_cast<size_t>(key)].bps() >= bw - eps) {
      try_local = false;
      break;
    }
  }

  std::vector<Flow*>& affected = component_scratch_;
  affected.clear();
  bool solved = false;
  bool spanning = false;
  if (try_local) {
    // Seed the affected set with every flow on a changed side: those are the
    // only flows a batched arrival or departure constrains directly. Everything
    // else is presumed to keep its rate until the boundary check below proves
    // otherwise. Membership is tracked by one visit stamp per flush, shared
    // between flows and sides, so joining is O(1) and nothing needs clearing.
    ++visit_stamp_;
    affected_sides_.clear();
    auto add_side = [&](int key) {
      if (side_visit_stamp_[static_cast<size_t>(key)] != visit_stamp_) {
        side_visit_stamp_[static_cast<size_t>(key)] = visit_stamp_;
        affected_sides_.push_back(key);
      }
    };
    auto add_flow = [&](Flow* flow) {
      if (flow->visit_stamp != visit_stamp_) {
        flow->visit_stamp = visit_stamp_;
        affected.push_back(flow);
        add_side(EgressKey(flow->src));
        add_side(IngressKey(flow->dst));
      }
    };
    for (const int key : dirty_sides_) {
      add_side(key);
      for (Flow* flow : SideFlows(key)) {
        add_flow(flow);
      }
    }
    // Second gate, over the seeded flows' *other* sides: a saturated neighbor
    // pins the seeded flows at its level, and re-leveling it drags its own
    // flows along — the boundary check would fail and fall back anyway, so
    // skip straight there rather than paying a doomed sub-solve.
    for (const int key : affected_sides_) {
      if (side_rate_sum_[static_cast<size_t>(key)].bps() >= bw - eps) {
        try_local = false;
        break;
      }
    }
    if (try_local && 2 * affected.size() <= flows_by_id_.size()) {
      // Canonical order: rates are solved — and below, applied and their
      // completion keys pushed — in ascending flow id, so the event schedule
      // (and the run digest) depends only on the flow set, never on the
      // traversal order that discovered it. Sorting the solve input also
      // canonicalizes the solver's floating-point evaluation order, which is
      // what lets a re-solve of an unchanged sub-structure reproduce rates
      // bit-for-bit (and ApplyRate skip them).
      SortByFlowId(&affected);
      SolveMaxMin(affected, /*spanning=*/false);
      RecordSlotTotals(affected);
      ++stats_.solves;
      stats_.flows_touched += affected.size();
      solved = SubSolveCertified(eps);
    }
  }
  if (!solved) {
    // The sub-solve failed its boundary check (or the gates said it would):
    // growing the set and re-solving would, in a saturated fabric, almost
    // always cascade through the whole component, so cut straight to one
    // full-closure solve. It is always sufficient: rates outside the connected
    // component of the changed sides cannot move.
    // When the last collected closure spanned every live flow — a loaded
    // fabric is usually one connected component — later fallbacks skip the
    // collection walk and solve the full flow list directly: a superset solve
    // is always correct (disjoint components fill independently under the
    // global-min bottleneck selection, and unchanged rates are skipped on
    // apply), it is just wasted width if the fabric has since split, so the
    // closure is re-collected every few dozen flushes to revalidate.
    if (spanning_revalidate_ > 0) {
      --spanning_revalidate_;
      spanning = true;
    } else {
      CollectFromSides(dirty_sides_, &affected);
      if (affected.size() == flows_by_id_.size()) {
        spanning_revalidate_ = kSpanningRevalidateInterval;
        spanning = true;
      } else {
        SortByFlowId(&affected);
      }
    }
    SolveMaxMin(affected, spanning);
    ++stats_.solves;
    stats_.flows_touched += spanning ? flows_by_id_.size() : affected.size();
  }
  dirty_sides_.clear();
  ++dirty_stamp_;

  // Apply in ascending flow id, each flow taking its class's rate. A spanning
  // walk visits every live flow, so it recomputes the earliest completion on
  // the way instead of leaving it to a rescan.
  const std::vector<Flow*>& solved_flows = spanning ? flows_by_id_ : affected;
  const Flow* earliest = nullptr;
  for (Flow* flow : solved_flows) {
    const monoutil::BytesPerSecond rate(pair_rate_[static_cast<size_t>(PairKey(*flow))]);
    // Same skip ApplyRate makes, hoisted: most of a re-solved component keeps
    // its rates bit-for-bit, so the call itself is the cost worth dodging.
    if (rate != flow->rate || flow->predicted_done < SimTime()) {
      ApplyRate(flow, rate);
    }
    if (spanning && (earliest == nullptr || flow->predicted_done < earliest->predicted_done)) {
      earliest = flow;
    }
  }
  if (spanning) {
    earliest_ = earliest;
    earliest_valid_ = true;
  }
  UpdateCompletionTimer();
  if (trace_enabled_ || monotrace::Tracer::current() != nullptr) {
    for (const Flow* flow : solved_flows) {
      touched_scratch_.push_back(flow->dst);
    }
    RecordIngressTouched(touched_scratch_);
  }
}

void NetworkFabricSim::RecordIngressTouched(std::span<const int> machines) {
  monotrace::Tracer* tracer = monotrace::Tracer::current();
  if (!trace_enabled_ && tracer == nullptr) {
    return;
  }
  ++ingress_record_call_;
  for (const int machine : machines) {
    uint64_t& stamp = ingress_record_stamp_[static_cast<size_t>(machine)];
    if (stamp == ingress_record_call_) {
      continue;
    }
    stamp = ingress_record_call_;
    double total = 0.0;
    for (const Flow* flow : ingress_flows_[static_cast<size_t>(machine)]) {
      total += flow->rate.bps();
    }
    if (trace_enabled_) {
      ingress_traces_[static_cast<size_t>(machine)].Record(sim_->now(), total);
    }
    if (tracer != nullptr) {
      tracer->Counter("devices", "machine" + std::to_string(machine) + ".nic-in",
                      sim_->now().seconds(), total / nic_bandwidth_.bps());
    }
  }
}

void NetworkFabricSim::OnFlowComplete(FlowId id) {
  const auto by_id = std::lower_bound(
      flows_by_id_.begin(), flows_by_id_.end(), id,
      [](const Flow* f, FlowId v) { return f->id < v; });
  MONO_CHECK(by_id != flows_by_id_.end() && (*by_id)->id == id);
  Flow* flow = *by_id;

  // Guard against firing while a rate change left residual bytes.
  const SimTime now = sim_->now();
  const SimTime dt = now - flow->last_update;
  flow->remaining = std::max(0.0, flow->remaining - flow->rate.bps() * dt.seconds());
  flow->last_update = now;
  MONO_CHECK_MSG(
      flow->remaining <= std::max(flow->rate.bps(), 1.0) * kCompletionEpsilonSeconds,
      "flow completion fired early");

  const int src = flow->src;
  const int dst = flow->dst;
  const monoutil::BytesPerSecond rate = flow->rate;
  InlineCallback done = std::move(flow->done);
  // Decide on the local patch while the departing flow still counts in its
  // sides' sums and flow lists (the decision reads both).
  const bool patched = CanPatchDeparture(*flow);

  auto erase_from = [](std::vector<Flow*>& list, Flow* target) {
    list.erase(std::remove(list.begin(), list.end(), target), list.end());
  };
  erase_from(egress_flows_[static_cast<size_t>(src)], flow);
  erase_from(ingress_flows_[static_cast<size_t>(dst)], flow);
  AccumulateSideTime(now);
  if (egress_flows_[static_cast<size_t>(src)].empty()) {
    --busy_side_count_;
  }
  if (ingress_flows_[static_cast<size_t>(dst)].empty()) {
    --busy_side_count_;
  }
  for (const int key : {EgressKey(src), IngressKey(dst)}) {
    const bool was_saturated = SideSaturated(key);
    side_rate_sum_[static_cast<size_t>(key)] -= rate;
    if (SideSaturated(key) != was_saturated) {
      saturated_side_count_ += was_saturated ? -1 : 1;
    }
  }
  flows_by_id_.erase(by_id);
  const int pair = PairKey(*flow);
  if (--pair_count_[static_cast<size_t>(pair)] == 0) {
    live_pairs_.erase(std::find(live_pairs_.begin(), live_pairs_.end(), pair));
  }
  if (flow == earliest_) {
    earliest_valid_ = false;
  }
  // Recycle before `done()` runs: the callback may start a replacement flow,
  // which is welcome to reuse this very slot (everything it needs was copied
  // into locals above).
  free_flows_.push_back(flow);

  if (patched) {
    ++stats_.patched_departures;
    RecordIngressTouched(dst);
  } else {
    ++stats_.batched_changes;
    MarkDirty(src, dst);
  }
  static monotrace::MetricCounter* flows_metric =
      monotrace::MetricsRegistry::Global().Get("fabric.flows_completed");
  flows_metric->Increment();
  done();
}

int NetworkFabricSim::ingress_flows(int machine) const {
  MONO_CHECK(machine >= 0 && machine < num_machines());
  return static_cast<int>(ingress_flows_[static_cast<size_t>(machine)].size());
}

int NetworkFabricSim::egress_flows(int machine) const {
  MONO_CHECK(machine >= 0 && machine < num_machines());
  return static_cast<int>(egress_flows_[static_cast<size_t>(machine)].size());
}

void NetworkFabricSim::AccumulateSideTime(SimTime now) const {
  const SimTime dt = now - side_accum_at_;
  if (dt > SimTime()) {
    busy_side_seconds_ += dt * static_cast<double>(busy_side_count_);
    saturated_side_seconds_ += dt * static_cast<double>(saturated_side_count_);
  }
  side_accum_at_ = now;
}

monoutil::SimTime NetworkFabricSim::busy_side_seconds() const {
  AccumulateSideTime(sim_->now());
  return busy_side_seconds_;
}

monoutil::SimTime NetworkFabricSim::saturated_side_seconds() const {
  AccumulateSideTime(sim_->now());
  return saturated_side_seconds_;
}

monoutil::BytesPerSecond NetworkFabricSim::flow_rate(FlowId id) const {
  FlushPendingConst();
  const Flow* flow = FindFlow(id);
  MONO_CHECK_MSG(flow != nullptr, "flow_rate: unknown or completed flow");
  return flow->rate;
}

std::vector<NetworkFabricSim::FlowInfo> NetworkFabricSim::ActiveFlows() const {
  FlushPendingConst();
  std::vector<FlowInfo> infos;
  infos.reserve(flows_by_id_.size());
  // The registry is already in ascending id order — the snapshot inherits it.
  for (const Flow* flow : flows_by_id_) {
    infos.push_back(FlowInfo{flow->id, flow->src, flow->dst, flow->rate});
  }
  return infos;
}

void NetworkFabricSim::EnableTrace() {
  trace_enabled_ = true;
  for (size_t m = 0; m < ingress_traces_.size(); ++m) {
    if (ingress_traces_[m].empty()) {
      ingress_traces_[m].Record(sim_->now(), 0.0);
    }
  }
}

const RateTrace& NetworkFabricSim::ingress_trace(int machine) const {
  MONO_CHECK(machine >= 0 && machine < num_machines());
  FlushPendingConst();
  return ingress_traces_[static_cast<size_t>(machine)];
}

double NetworkFabricSim::MeanIngressUtilization(int machine, SimTime from, SimTime to) const {
  MONO_CHECK(trace_enabled_);
  return ingress_trace(machine).MeanUtilization(from, to, nic_bandwidth_.bps());
}

}  // namespace monosim
