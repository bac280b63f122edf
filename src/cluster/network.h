// NetworkFabricSim: a full-bisection fabric connecting the machines' NICs.
//
// Each machine has a full-duplex NIC whose ingress and egress sides are separate
// bandwidth constraints. Flow rates are the max-min fair allocation over those
// constraints, computed by progressive filling (water-filling): all flows' rates
// rise together until some NIC side saturates, the flows crossing it freeze at
// their fair share, and the remaining flows keep rising through the residual
// capacity until every flow is bottlenecked at some saturated NIC. The allocation
// is therefore work-conserving: capacity one flow cannot use (because it is
// bottlenecked elsewhere) is redistributed to the flows that can.
//
// The previous model gave each flow min(egress share at src, ingress share at dst)
// with each NIC splitting equally among the flows it carries. That is exact for
// symmetric all-to-all shuffles but strands capacity under asymmetric fan-in/out —
// with flows m0→m1, m0→m1, m0→m2, m4→m2 it gave the fourth flow bw/2 where max-min
// gives 2bw/3 — distorting exactly the asymmetric shuffle-fetch patterns that
// distinguish Spark's many-concurrent-fetch behaviour from the monotasks
// receiver-driven scheduler (§3.4).
//
// Incremental solving is organised around three mechanisms (DESIGN §4):
//
//  * Epoch batching. All flow arrivals and departures carrying one simulation
//    timestamp are coalesced into a single progressive-filling pass, run from the
//    Simulation's end-of-epoch hook (Simulation::AtEpochEnd) just before the
//    clock advances — one solve per timestamp instead of one per event. Rate
//    queries (flow_rate, ActiveFlows, the audit) flush pending work first, so
//    callers never observe the transient mid-epoch state.
//  * Per-side rate sums. Every NIC side keeps the sum of its flows' current
//    rates, updated in O(1) on every rate change. The questions that need a
//    side's maximum or runner-up share (the local patches and the boundary
//    check below) walk the side's flow list, which changes only on arrival and
//    departure — never on the far more frequent rate changes.
//  * Pair classes. Every flow between one (src, dst) pair crosses the same two
//    NIC sides, so max-min gives them one rate. The solver writes one rate per
//    pair, reading each pair's live flow count as its multiplicity (a solve
//    holds every live flow of a pair or none), so a solve spanning the whole
//    fabric never walks a flow at all. The fabric also caches the rate each
//    pair's flows last took in a spanning flush, and that flush's apply walk
//    dereferences only the flows of pairs whose rate changed.
//  * Bottleneck-set pruning. A single arrival or departure whose delta provably
//    cannot change the saturated-side structure is absorbed by a local patch
//    (one walk of its two sides) instead of any re-solve: an arrival that fits
//    the free capacity of both its sides without out-ranking any flow on a side
//    it saturates, or a departure whose rate strictly out-ranks every remaining
//    flow on each of its saturated sides (so nobody was bottlenecked behind
//    it). When a re-solve is needed it is still pruned to the *affected set*,
//    not the whole connected component: the flows on the changed sides are
//    re-solved as a sub-problem in which every other flow is fixed
//    consumption, and the boundary is then
//    checked against the max-min certification. The sub-solve is accepted only
//    if no fixed flow is proven mis-ranked (it out-ranks a saturated side's new
//    level, or no side certifies its rate any more), which is exactly the
//    audit's bottleneck certification, so pruned solutions are certified by
//    construction — see DESIGN §4 and §8. Otherwise the solver falls back to
//    the full closure (every flow transitively sharing a NIC side with a
//    changed endpoint — rates outside that component cannot change, so the
//    fallback is always sufficient).
//
// Completion events go through the fabric rather than the simulation queue:
// each flow carries its predicted completion time, the fabric caches the
// earliest live (time, id), and a single "next completion" event tracks it. A
// rate change that lowers a key lowers the cache; one that moves the cached
// flow later, or its completion, invalidates it, and an invalid cache is
// rescanned from the registry when the timer next needs it. No per-flow
// simulation event is ever cancelled and rescheduled, the dominant cost of
// churn once solving itself is pruned (a max-min cascade re-times many
// completions per delta). Rates are solved and applied in ascending flow-id order, and the
// cache orders by (time, id) alone, so the event schedule (and the run digest)
// never depends on traversal order or addresses.
#ifndef MONOTASKS_SRC_CLUSTER_NETWORK_H_
#define MONOTASKS_SRC_CLUSTER_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/simcore/audit.h"
#include "src/simcore/rate_trace.h"
#include "src/simcore/simulation.h"

namespace monosim {

// Per-machine aggregates of one fabric allocation, indexed by machine: each
// NIC side's rate sum and its largest single flow rate (AuditFabricAllocation
// fills them).
struct FabricSideTotals {
  std::vector<double> egress_sum;
  std::vector<double> egress_max;
  std::vector<double> ingress_sum;
  std::vector<double> ingress_max;
};

class NetworkFabricSim : public Auditable {
 public:
  // Owned by ClusterSim, which outlives the simulation run, so `this` captures
  // into its own schedule sites cannot dangle (the alive_ guard additionally
  // covers mid-run teardown).
  MONO_SIM_OWNED;

  // All NICs share one bandwidth (each direction).
  NetworkFabricSim(Simulation* sim, int num_machines, monoutil::BytesPerSecond nic_bandwidth);
  ~NetworkFabricSim() override;

  NetworkFabricSim(const NetworkFabricSim&) = delete;
  NetworkFabricSim& operator=(const NetworkFabricSim&) = delete;

  using FlowId = uint64_t;

  // Starts a bulk data flow of `bytes` from machine `src` to machine `dst` (src !=
  // dst); `done` (any void() callable; oversize captures draw pooled storage
  // from the owning simulation's arena) fires when the last byte arrives.
  template <typename F>
  FlowId StartFlow(int src, int dst, monoutil::Bytes bytes, F&& done) {
    return StartFlowImpl(src, dst, bytes,
                         WrapCallback(std::forward<F>(done), sim_->callback_arena()));
  }

  // Delivers a small control message (a shuffle data request) from `src` to
  // `dst` after a fixed one-way latency of 1 ms.
  template <typename F>
  void SendControl(int src, int dst, F&& deliver) {
    SendControlImpl(src, dst, WrapCallback(std::forward<F>(deliver), sim_->callback_arena()));
  }

  int num_machines() const { return static_cast<int>(ingress_flows_.size()); }

  // Number of flows currently arriving at / departing from `machine`.
  int ingress_flows(int machine) const;
  int egress_flows(int machine) const;

  // Current rate of an active flow. Flushes pending epoch work.
  monoutil::BytesPerSecond flow_rate(FlowId id) const;

  // Snapshot of the active flow set, for the property tests that compare the
  // incremental allocation against a reference max-min solver. Flushes pending
  // epoch work.
  struct FlowInfo {
    FlowId id;
    int src;
    int dst;
    monoutil::BytesPerSecond rate;
  };
  std::vector<FlowInfo> ActiveFlows() const;

  monoutil::Bytes total_bytes_transferred() const { return total_bytes_; }

  // Solver instrumentation, reset-free counters for the benches: how often the
  // progressive-filling solver actually ran, how many flows it touched, and how
  // much work the batching/pruning layers absorbed. `flows_touched` counts flows
  // per solve, so touched/solves is the mean re-solved component size.
  struct SolverStats {
    uint64_t solves = 0;             // Progressive-filling passes run.
    uint64_t flows_touched = 0;      // Σ component sizes across those passes.
    uint64_t rate_changes = 0;       // Rate installs that actually changed a rate.
    uint64_t epochs_flushed = 0;     // End-of-epoch flushes that found dirty state.
    uint64_t batched_changes = 0;    // Arrivals/departures coalesced into flushes.
    uint64_t patched_arrivals = 0;   // Arrivals absorbed by the local patch.
    uint64_t patched_departures = 0; // Departures absorbed by the local patch.
  };
  const SolverStats& solver_stats() const { return stats_; }

  // Always-on utilization/saturation integrals over NIC sides (two per machine:
  // egress and ingress), the fabric analogue of FluidServer::busy_seconds():
  // the sum over sides of virtual seconds carrying at least one flow, and the
  // subset during which the side's allocated rate sum consumed the full NIC
  // bandwidth (the side was a max-min bottleneck). Dividing by 2*num_machines
  // gives mean per-side utilization; saturated/busy is the fraction of carried
  // time with no headroom. Both integrate up to now and need no tracing.
  monoutil::SimTime busy_side_seconds() const;
  monoutil::SimTime saturated_side_seconds() const;

  // Per-machine ingress rate trace (enabled for all machines by EnableTrace).
  void EnableTrace();
  const RateTrace& ingress_trace(int machine) const;
  double MeanIngressUtilization(int machine, SimTime from, SimTime to) const;

  // Invariant auditing (audit.h): the bookkeeping checks — the registry in
  // ascending id order and matched by the per-machine flow lists (both
  // directions), the incrementally-maintained side rate sums equal to their
  // recomputed totals, the per-pair live counts and live-pair list matching a
  // recount of the registry, every member of a pair with a cached applied rate
  // carrying exactly that rate, flow rates non-negative, and no flows left when
  // the simulation drains — plus AuditFabricAllocation over a snapshot of the
  // live flows. Pending epoch work is flushed first, so the audit always
  // certifies the batched solution, never the mid-epoch transient.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

 private:
  struct Flow {
    FlowId id;
    int src;
    int dst;
    // Bytes still to move, fractional: fluid-model progress under a rate leaves
    // sub-byte residues mid-transfer, so this is not an exact monoutil::Bytes.
    double remaining;
    monoutil::BytesPerSecond rate;
    SimTime last_update;
    InlineCallback done;
    // Absolute predicted completion time; negative until the flow's first rate
    // is applied.
    SimTime predicted_done{-1.0};
    uint64_t visit_stamp = 0;  // Affected-set membership stamp (one stamp per flush).
  };

  // NIC sides are keyed 2m (egress of machine m) / 2m+1 (ingress of m).
  static int EgressKey(int machine) { return 2 * machine; }
  static int IngressKey(int machine) { return 2 * machine + 1; }
  // Pair classes are keyed src * num_machines + dst.
  int PairKey(const Flow& flow) const { return flow.src * num_machines() + flow.dst; }

  // Marks both endpoint sides of a change dirty and registers the end-of-epoch
  // flush with the simulation (once per open epoch).
  void MarkDirty(int src, int dst);
  void MarkSideDirty(int side_key);

  // Runs the deferred epoch work, if any: seeds the affected set from the dirty
  // sides, sub-solves it (unaffected flows held as fixed consumption), keeps
  // the result if the certification boundary check passes (else falls back to
  // the full closure), applies the rates in ascending flow-id order, and
  // records the touched ingress traces. Idempotent; no-op when clean.
  void FlushPending();
  // Const-context flush for the rate queries and the audit: pending epoch work is
  // deferred evaluation of state the caller is about to read, not a logical
  // mutation, so flushing from const observers is sound.
  void FlushPendingConst() const { const_cast<NetworkFabricSim*>(this)->FlushPending(); }

  // Local absorption of a single change while the fabric is clean (no dirty
  // sides). TryPatchArrival gives the new flow min(free egress, free ingress)
  // when that cannot disturb the existing bottleneck structure; returns false if
  // a full re-solve is needed. CanPatchDeparture says whether removing `flow`
  // provably leaves every remaining rate unchanged.
  bool TryPatchArrival(Flow* flow);
  bool CanPatchDeparture(const Flow& flow) const;

  // All flows transitively sharing a NIC side with the seed sides, appended to
  // `component` (which is cleared first).
  void CollectFromSides(const std::vector<int>& seed_sides, std::vector<Flow*>* component);

  // The flows crossing one NIC side (egress list for even keys, ingress for odd).
  const std::vector<Flow*>& SideFlows(int key) const {
    return (key % 2 == 0) ? egress_flows_[static_cast<size_t>(key / 2)]
                          : ingress_flows_[static_cast<size_t>(key / 2)];
  }
  // The largest current share on one NIC side (zero when it carries no flow).
  double SideMaxShare(int key) const;

  // Reorders `flows` into ascending flow-id order (the canonical order rates are
  // solved and applied in). Sorting (id, ptr) pairs keeps the comparisons out of
  // the flows' cache lines.
  void SortByFlowId(std::vector<Flow*>* flows);

  // Progressive-filling max-min rates, one per pair class, written into
  // pair_rate_ (negative while the class is unfrozen). A class is a pair with
  // flows in the solve, pair_count_ of them: a solve holds every live flow of
  // a pair or none. With `spanning` the caller vouches that the solve covers
  // every live flow: the classes are the live pairs, slots are the side keys
  // themselves, and `component` is not walked. Otherwise the id-sorted
  // `component` numbers its sides' slots in first-seen order, and flows *not*
  // in it (those not carrying the current visit stamp) are held at their
  // existing rates: each slot's capacity is reduced by their consumption,
  // which is what lets FlushPending solve a pruned affected set instead of the
  // whole closure. A full-closure component has no such flows, so its solve is
  // identical to a from-scratch pass. The next bottleneck side is found by
  // scanning a flat array of per-slot saturation caps. Non-const: the slot
  // tables are persistent scratch, and the per-slot levels are left behind for
  // the boundary check.
  void SolveMaxMin(const std::vector<Flow*>& component, bool spanning);
  // The progressive fill over the `num_classes` classes SolveMaxMin set up.
  void FillClasses(size_t num_classes, bool spanning);
  // Grows every per-slot scratch array to hold at least `slots` entries.
  void GrowSlotArrays(size_t slots);

  // Fills slot_total_ / slot_max_affected_ from the last solve's rates, for the
  // boundary check, summing per flow of `component` in ascending id. Split out
  // of SolveMaxMin so fallback solves — which have no boundary to check — skip
  // it.
  void RecordSlotTotals(const std::vector<Flow*>& component);

  // After a sub-solve: true if some side of `flow` still certifies its (fixed)
  // rate — saturated, with `flow` holding a maximal share. Sides in the solve
  // are read from the solver's per-slot results, untouched sides from their
  // rate sum and flow list (which the solve cannot have changed).
  bool CertifiedAfterSolve(const Flow& flow) const;

  // The boundary check after an affected-set sub-solve: true if every fixed
  // flow on an affected side stays certified under the new levels, false at the
  // first one that does not (the caller then falls back to the full closure).
  // Non-const: fills slot_unaffected_max_ for CertifiedAfterSolve.
  bool SubSolveCertified();

  // Advances `flow`'s progress under its old rate to `now`, then installs
  // `new_rate`, updates the side rate sums, and re-keys the flow's predicted
  // completion (lowering or invalidating the cached earliest completion).
  // Skips flows whose rate is unchanged, so symmetric recomputes cost nothing.
  void ApplyRate(Flow* flow, monoutil::BytesPerSecond new_rate, SimTime now);

  // The earliest live (predicted_done, id), rescanning the registry if the
  // cache is invalid; nullptr when no flow has a rate yet. Then the single
  // simulation event tracking it, and the handler that completes every flow
  // due at the fired timestamp.
  const Flow* EarliestDue();
  void UpdateCompletionTimer();
  void OnNextCompletion();

  // Records the ingress rate trace and tracer counters for `machines`, summing
  // each machine's ingress rates once for both. A machine listed more than once
  // is recorded once, at its first entry (a flush lists one per solved flow).
  void RecordIngressTouched(std::span<const int> machines);
  void RecordIngressTouched(int machine) { RecordIngressTouched({&machine, 1}); }

  void OnFlowComplete(FlowId id);

  // Out-of-line implementations behind the StartFlow/SendControl templates.
  FlowId StartFlowImpl(int src, int dst, monoutil::Bytes bytes, InlineCallback&& done);
  void SendControlImpl(int src, int dst, InlineCallback&& deliver);

  // Arena allocation: pop the free list (growing it by a block when empty) and
  // reset the recycled struct's solver-visible fields; completed flows go back
  // on the list. The live flow with `id`, found by binary search on the
  // id-ordered registry; nullptr when absent.
  Flow* AllocFlow();
  Flow* FindFlow(FlowId id) const;

  // Advances the side-time integrals to `now` under the current busy/saturated
  // side counts (both constant since the last accumulation). Called before any
  // mutation that changes a side's flow count or rate sum; the mutations in a
  // same-timestamp batch contribute zero dt, and only the final counts survive
  // into the next non-zero interval. Const (with mutable integrals) so the
  // read accessors can bring the totals up to now.
  void AccumulateSideTime(SimTime now) const;
  bool SideSaturated(int side_key) const {
    return side_rate_sum_[static_cast<size_t>(side_key)].bps() >= saturated_at_;
  }

  Simulation* sim_;
  monoutil::BytesPerSecond nic_bandwidth_;
  // Rate-comparison tolerance, 1e-9 of the bandwidth (at least 1e-9 B/s), and
  // the rate sum at which a side counts as saturated (bandwidth minus it).
  double eps_;
  double saturated_at_;

  // Flow registry: every live flow in ascending id order — the canonical solve
  // order. Ids are assigned monotonically, so arrival is a push_back; departure
  // (and lookup) is a binary search. Full-component solves (the common case in
  // a loaded fabric) take this list verbatim instead of re-sorting the
  // collected set. The structs themselves come from a pooled arena below.
  // flow_pair_ holds each registry entry's PairKey at the same index, so the
  // spanning apply walk can pick out changed pairs without a dereference.
  std::vector<Flow*> flows_by_id_;
  std::vector<int> flow_pair_;
  // Flow arena: fixed-size blocks and a LIFO free list. Pooling keeps the
  // structs clustered in a few pages, so the solver's and audit's walks don't
  // chase one heap allocation per flow; recycling makes steady-state churn
  // allocation-free. Only flows_by_id_ decides identity and order — pointers
  // never do (recycled addresses would otherwise leak into the schedule).
  std::vector<std::unique_ptr<Flow[]>> flow_blocks_;
  std::vector<Flow*> free_flows_;
  std::vector<std::vector<Flow*>> ingress_flows_;
  std::vector<std::vector<Flow*>> egress_flows_;
  // Current rate sum of each NIC side, indexed by EgressKey/IngressKey. Every
  // rate change updates it as `-= old; += new`, so the sums (and the saturation
  // counts derived from them) are a pure function of the rate-change sequence.
  std::vector<monoutil::BytesPerSecond> side_rate_sum_;
  // Pair classes, indexed by PairKey: the live flow count of each pair and the
  // pairs with at least one live flow, in the order they last became live
  // (reserved at construction for every pair). Kept in step with the registry
  // on arrival and departure.
  std::vector<int> pair_count_;
  std::vector<int> live_pairs_;
  // The rate every live flow of a pair carries (with its completion keyed),
  // as the last spanning flush applied it; NaN when unknown. An arrival and a
  // component-solve apply set it to NaN; a departure leaves it valid.
  std::vector<double> pair_applied_;
  // The cached earliest live completion (see EarliestDue): the flow with the
  // minimum (predicted_done, id), or nullptr when no flow has a rate. While
  // invalid it is recomputed on demand. One simulation event tracks it;
  // per-flow events would pay a queue cancel+reschedule for every rate change
  // a cascade re-times.
  const Flow* earliest_ = nullptr;
  bool earliest_valid_ = true;
  EventHandle next_completion_;
  SimTime next_completion_time_{-1.0};
  FlowId next_id_ = 1;
  monoutil::Bytes total_bytes_;

  // Closure-collection scratch (CollectFromSides), reused across calls: flows and
  // sides are marked visited by stamp so nothing needs clearing between runs.
  uint64_t visit_stamp_ = 0;
  std::vector<uint64_t> side_visit_stamp_;
  std::vector<int> pending_sides_;

  // Solver scratch (SolveMaxMin): the side-key -> slot map is stamped per
  // solve, and per-slot state keeps its capacity across solves, so the
  // steady-state solve allocates nothing.
  uint64_t solve_stamp_ = 0;
  std::vector<uint64_t> slot_stamp_;  // Side key -> last solve that used it.
  std::vector<int> slot_of_;          // Side key -> slot within that solve.
  // The solved rate of each pair key; negative while its class is unfrozen
  // (every entry is non-negative between solves).
  std::vector<double> pair_rate_;
  int num_slots_ = 0;
  std::vector<double> slot_consumed_;
  std::vector<int> slot_unfrozen_;    // Flows not yet frozen, per slot.
  std::vector<double> slot_cap_;  // Fill level at which the slot saturates.
  // Per-slot sub-solve results, read by the boundary check: the side key behind
  // the slot, the fixed consumption of unaffected flows (and their top share,
  // filled by the check's first pass), the level the side froze its
  // flows at (infinity if it never became the bottleneck), and the side's
  // post-solve total and top affected share.
  std::vector<int> slot_keys_;
  std::vector<double> slot_base_;
  std::vector<double> slot_unaffected_max_;
  std::vector<double> slot_level_;
  std::vector<double> slot_total_;
  std::vector<double> slot_max_affected_;

  // Flush scratch (FlushPending), reused across epochs. `component_scratch_`
  // holds the solved flows, or after a spanning solve the changed pairs'
  // members. `affected_sides_` is the NIC sides crossed by the current
  // affected set (plus the emptied dirty ones).
  std::vector<Flow*> component_scratch_;
  std::vector<std::pair<FlowId, Flow*>> sort_scratch_;
  std::vector<int> touched_scratch_;
  std::vector<int> affected_sides_;
  // Fallback flushes left that may take the full flow list without re-walking
  // the closure (armed when a collected closure spans every live flow).
  int spanning_revalidate_ = 0;

  // Epoch-batching state: the NIC sides touched by changes since the last flush,
  // deduplicated by stamp, plus whether the end-of-epoch flush is registered.
  std::vector<int> dirty_sides_;
  std::vector<uint64_t> side_dirty_stamp_;
  uint64_t dirty_stamp_ = 1;
  bool flush_registered_ = false;
  // Lets a registered-but-unfired end-of-epoch flush outlive the fabric safely:
  // the callback holds a copy and no-ops once the flag is cleared.
  std::shared_ptr<bool> alive_;

  SolverStats stats_;

  // Utilization-telemetry state (AccumulateSideTime): the integrals, the time
  // they are advanced to, and the side counts they advance under. busy = sides
  // carrying >= 1 flow; saturated = sides whose rate sum consumes the NIC
  // bandwidth, maintained incrementally at every rate-sum update.
  mutable SimTime busy_side_seconds_;
  mutable SimTime saturated_side_seconds_;
  mutable SimTime side_accum_at_;
  int busy_side_count_ = 0;
  int saturated_side_count_ = 0;

  bool trace_enabled_ = false;
  std::vector<RateTrace> ingress_traces_;
  // RecordIngressTouched's per-machine dedup: a machine is recorded in a call
  // only while its stamp is not yet the call's.
  std::vector<uint64_t> ingress_record_stamp_;
  uint64_t ingress_record_call_ = 0;

  // Audit scratch, refilled by every epoch-boundary sweep (the per-pair
  // recount also by SolveMaxMin's audited class check): the live-flow
  // snapshot, its per-side ground-truth aggregates, and the per-pair recount.
  // Mutable because AuditInvariants is const — the sweep reuses the buffers,
  // it does not change observable fabric state.
  mutable std::vector<FlowInfo> audit_flows_;
  mutable FabricSideTotals audit_sides_;
  mutable std::vector<int> audit_pair_count_;
};

// The allocation-level fabric invariants, over a flow snapshot on
// `num_machines` NICs of `bandwidth` each way: every NIC side's rate sum
// within the bandwidth (ingress-within-bandwidth, egress-within-bandwidth),
// and every flow max-min certified — it crosses at least one saturated side
// on which no flow has a larger share (max-min-bottleneck). The certification
// bounds rates from below, so stranded capacity fails it even where the
// bandwidth checks pass. NetworkFabricSim::AuditInvariants runs it on its live
// flows; tests run it on allocations they build. `sides` is caller-owned
// scratch, left holding the per-side aggregates.
void AuditFabricAllocation(SimAudit& audit, SimTime now,
                           std::span<const NetworkFabricSim::FlowInfo> flows, int num_machines,
                           monoutil::BytesPerSecond bandwidth, FabricSideTotals& sides);

}  // namespace monosim

#endif  // MONOTASKS_SRC_CLUSTER_NETWORK_H_
