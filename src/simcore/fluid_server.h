// FluidServer: a capacity-shared ("fluid") resource model for the discrete-event
// simulator.
//
// A FluidServer serves requests measured in abstract work units (CPU-seconds for a
// compute core pool, bytes for a disk). All admitted requests progress simultaneously;
// capacity is split in proportion to the requests' weights (weighted fair sharing),
// optionally capped per request (a single task thread cannot use more than one core) —
// capacity freed by capped requests is redistributed among the uncapped ones. Total
// capacity may itself depend on the number of active requests — this is how HDD seek
// degradation under concurrent streams and SSD channel parallelism are expressed:
//
//   * CPU pool of c cores:  capacity(n) = c,       per-request cap = 1 core
//   * HDD:                  capacity(n) = B / (1 + alpha * (n - 1))   (seek penalty)
//   * SSD with k channels:  capacity(n) = B * ramp(min(n, k) / k)
//
// The server recomputes rates whenever the active set changes and keeps exactly one
// pending completion event, so the event count is proportional to the request count.
// It also integrates served work over time and can record a (time, total-rate) step
// function for utilization plots (Figs 2 and 9 in the paper).
//
// Request path. Every chunk of the simulated Spark baseline is a submit and a
// completion here, so the path is kept lean without moving a single result:
//   * An active request is a 40-byte plain record; its `done` callback and id
//     sit in a slot of a free-listed callback table. Compacting the active set
//     after a completion copies records, never relocates callbacks.
//   * An uncapped server (every disk) sets all rates, their total and the
//     earliest finish in one pass; a capped one (a CPU pool) water-fills by
//     compacting its open set in place, keeping each pass's proportional share
//     as the rate when the pass pins nothing.
// Each rate is the same float expression, each sum runs in admission order,
// and every reschedule still cancels and re-arms the one completion event, so
// the event stream (and every run digest) is what the plain two-pass water-fill
// (tests/fluid_reference.h) produces, bit for bit.
#ifndef MONOTASKS_SRC_SIMCORE_FLUID_SERVER_H_
#define MONOTASKS_SRC_SIMCORE_FLUID_SERVER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/simcore/audit.h"
#include "src/simcore/rate_trace.h"
#include "src/simcore/simulation.h"

namespace monosim {

// Total capacity (work units per second) available given the sum of the active
// requests' contention weights. Must be positive whenever any request is active.
// Weights let callers express that some request types contend less: a streaming disk
// write merged by the elevator costs less head movement than an interleaved read, so
// it carries a fractional weight.
//
// Config-time only: bound once at server construction, never on the event hot
// path, so the std::function indirection and its one-time allocation are fine.
// mono_lint: allow(std-function-hot-path) -- bound once at construction, never per event.
using CapacityFn = std::function<double(double active_weight)>;

class FluidServer : public Auditable {
 public:
  // Fluid servers model per-machine devices (CPU pools, disks); they are owned
  // by machine components that outlive the simulation run, so `this`
  // captures into their own schedule sites cannot dangle.
  MONO_SIM_OWNED;

  // `per_request_cap` limits the rate any single request may receive; pass
  // kUnlimited for none. `name` is used in traces and error messages.
  static constexpr double kUnlimited = -1.0;

  FluidServer(Simulation* sim, std::string name, CapacityFn capacity,
              double per_request_cap = kUnlimited);
  ~FluidServer() override;

  FluidServer(const FluidServer&) = delete;
  FluidServer& operator=(const FluidServer&) = delete;

  // Identifies an in-service request.
  using RequestId = uint64_t;

  // `share_weight` sentinel for Submit: share capacity in proportion to `weight`.
  static constexpr double kSameAsWeight = -1.0;

  // Admits a request for `amount` work units; `done` (any void() callable — its
  // capture draws pooled storage from the owning simulation's arena when it
  // exceeds the inline buffer) fires when the request completes. Requests are
  // serviced immediately — queueing policy belongs to the schedulers layered
  // above this class. `amount` may be zero, in which case `done` fires at the
  // current time.
  //
  // `weight` (default 1) is the request's contention weight passed to the capacity
  // function — how much device capacity the request's presence costs. `share_weight`
  // is its weight in the fair split of that capacity — how much of it the request
  // receives relative to the others — and defaults to `weight`. They are separate
  // because cost and priority differ on real devices: a write interleaved with reads
  // costs an HDD most of its bandwidth (high contention weight) but the elevator
  // still serves both streams about equally (share weight 1), which is how DiskSim
  // submits it.
  template <typename F>
  RequestId Submit(double amount, F&& done, double weight = 1.0,
                   double share_weight = kSameAsWeight) {
    const uint32_t slot = AcquireSlot();
    callbacks_[slot].done = WrapCallback(std::forward<F>(done), sim_->callback_arena());
    return Admit(amount, slot, weight, share_weight);
  }

  // Aborts an in-service request; its `done` callback never fires. Returns the
  // remaining (unserved) work.
  double CancelRequest(RequestId id);

  // Number of requests currently in service.
  int active() const { return static_cast<int>(active_.size()); }

  // Total work units served so far (integrated over time).
  double total_served() const;

  // Always-on utilization/saturation accumulators (telemetry tentpole): virtual
  // seconds with at least one active request, and the subset of those during
  // which the granted total rate equaled the instantaneous capacity (the device
  // had no headroom — adding work could only queue). busy - saturated is the
  // window where the device ran but had spare capacity. Both integrate up to
  // the last bookkeeping update; they need no tracing.
  SimTime busy_seconds() const { return busy_seconds_; }
  SimTime saturated_seconds() const { return saturated_seconds_; }

  // Nominal capacity used as the denominator for utilization: capacity(1) unless
  // overridden via set_nominal_capacity (e.g. a CPU pool's core count).
  double nominal_capacity() const { return nominal_capacity_; }
  void set_nominal_capacity(double c) { nominal_capacity_ = c; }

  // Mean utilization over [from, to]: work served in the window divided by
  // nominal_capacity * (to - from). Requires tracing to be enabled.
  double MeanUtilization(SimTime from, SimTime to) const;

  // Enables recording of the (time, total service rate) step function.
  void EnableTrace();
  bool trace_enabled() const { return trace_enabled_; }

  // The recorded total-service-rate step function. Empty unless EnableTrace() was
  // called before the first request.
  const RateTrace& rate_trace() const { return rate_trace_; }

  const std::string& name() const { return name_; }

  // One active request's slice of the capacity split, as AuditFluidShares
  // checks it.
  struct ShareInfo {
    RequestId id;
    // mono_lint: allow(raw-unit-double) -- abstract work units per second.
    double rate;
    double share_weight;
  };

  // The active requests' current slices, in admission order. The span is
  // valid until the next call.
  std::span<const ShareInfo> Shares() const;

  // Invariant auditing (audit.h): AuditFluidShares over a snapshot of the
  // active requests, served work bounded by capacity × elapsed, and no
  // requests left active when the simulation drains.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

 private:
  // An active request: plain data, so the active set moves by copying.
  struct Request {
    double remaining;
    double weight;        // Contention weight (capacity-function input).
    double share_weight;  // Fair-share weight (capacity-split input).
    // Unit-agnostic: the server drains abstract work (bytes for disks,
    // core-seconds for CPU).
    // mono_lint: allow(raw-unit-double) -- abstract work units per second.
    double rate;
    uint32_t slot;  // Index of its callback and id in callbacks_.
  };
  static_assert(std::is_trivially_copyable_v<Request> && sizeof(Request) == 40);

  // A request's completion callback and id, held apart from the hot record.
  struct CallbackSlot {
    InlineCallback done;
    RequestId id = 0;
  };

  // Takes a free callback slot (growing the table when none is free).
  uint32_t AcquireSlot();

  // Shared implementation behind the Submit template: admits the request whose
  // callback already sits in `slot`.
  RequestId Admit(double amount, uint32_t slot, double weight, double share_weight);

  // Recomputes rates for the current active set and reschedules the single
  // completion event. Callers first bring progress up to date.
  void Reschedule();

  // The capped water-fill: splits `cap` by share weight (`share_sum` over the
  // whole active set), pinning requests whose share reaches the per-request
  // cap and re-splitting what they leave among the rest.
  void WaterFillCapped(double cap, double share_sum);

  // Brings `remaining` up to date with progress since `last_update_`.
  void AdvanceProgress();

  // Fires completions for any requests that have (numerically) finished.
  void OnCompletionEvent();

  Simulation* sim_;
  std::string name_;
  CapacityFn capacity_;
  double per_request_cap_;
  double nominal_capacity_;

  // Active requests, in admission order. A vector (not a list): submit and
  // complete are the steady-state churn, and vector storage keeps them free of
  // per-request node allocations once the high-water capacity is reached.
  // Nothing holds Request pointers across events.
  std::vector<Request> active_;
  // Callback table: one slot per active request, recycled through
  // free_slots_, so it stops growing at the high-water request count.
  std::vector<CallbackSlot> callbacks_;
  std::vector<uint32_t> free_slots_;
  // Scratch for the capped water-fill's open set; member so its capacity
  // persists across calls instead of reallocating per rate change.
  std::vector<Request*> reschedule_open_;
  // Scratch for OnCompletionEvent's harvested `done` callbacks (re-entrant
  // invocations fall back to a local batch).
  std::vector<InlineCallback> done_scratch_;
  RequestId next_id_ = 1;
  SimTime last_update_;
  double served_ = 0.0;  // Work units, not a unit-bearing quantity.
  SimTime busy_seconds_;
  SimTime saturated_seconds_;
  EventHandle completion_event_;

  // Audit bookkeeping: when the server was created, the capacity in effect for the
  // current active set, and the largest capacity ever granted (the conservation
  // bound — an SSD's capacity can exceed capacity(1), so nominal alone is too
  // tight a ceiling).
  SimTime created_at_;
  double last_capacity_ = 0.0;
  double max_capacity_seen_ = 0.0;
  // Shares()'s snapshot of the active requests; persistent so the
  // per-reschedule audit costs a fill, not an allocation.
  mutable std::vector<ShareInfo> shares_;

  bool trace_enabled_ = false;
  RateTrace rate_trace_;
};

// The per-request invariants of one split of `capacity` among `shares`, each
// reported under `source`: rates non-negative (rate-non-negative) and within
// `per_request_cap` unless it is FluidServer::kUnlimited (per-request-cap),
// every rate not pinned at the cap proportional to its share weight
// (weighted-share), and the total within the capacity (rate-conservation).
// FluidServer::AuditInvariants runs it on its active requests; tests run it on
// splits they build.
void AuditFluidShares(SimAudit& audit, SimTime now, const char* source,
                      std::span<const FluidServer::ShareInfo> shares, double capacity,
                      double per_request_cap);

// Convenience capacity functions.

// Constant capacity regardless of concurrency (CPU pools, network links).
CapacityFn ConstantCapacity(double capacity);

// HDD model: full bandwidth for one stream-weight, degrading as
// 1 / (1 + alpha * (w - 1)) with total contention weight w.
// Capacity models are in the server's abstract work units per second; disk
// call sites unwrap BytesPerSecond via .bps().
// mono_lint: allow(raw-unit-double) -- abstract work units per second.
CapacityFn HddCapacity(double bandwidth, double alpha);

// SSD model: bandwidth scales up with outstanding requests until `channels` worth of
// weight are busy; `single_stream_fraction` of peak is available to a lone request.
// mono_lint: allow(raw-unit-double) -- same abstract work units as above.
CapacityFn SsdCapacity(double bandwidth, int channels, double single_stream_fraction);

}  // namespace monosim

#endif  // MONOTASKS_SRC_SIMCORE_FLUID_SERVER_H_
