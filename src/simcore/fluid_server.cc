#include "src/simcore/fluid_server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/tracer.h"

namespace monosim {
namespace {

// A request whose remaining service time falls below this is considered complete.
// Expressed in seconds of service so it is independent of the work-unit scale.
constexpr double kCompletionEpsilonSeconds = 1e-9;

}  // namespace

FluidServer::FluidServer(Simulation* sim, std::string name, CapacityFn capacity,
                         double per_request_cap)
    : sim_(sim),
      name_(std::move(name)),
      capacity_(std::move(capacity)),
      per_request_cap_(per_request_cap),
      nominal_capacity_(capacity_(1)),
      last_update_(sim->now()),
      created_at_(sim->now()) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK_MSG(capacity_(1) > 0, "server capacity must be positive");
  sim_->RegisterAuditable(this);
}

FluidServer::~FluidServer() {
  sim_->UnregisterAuditable(this);
}

uint32_t FluidServer::AcquireSlot() {
  if (free_slots_.empty()) {
    callbacks_.emplace_back();
    return static_cast<uint32_t>(callbacks_.size() - 1);
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

FluidServer::RequestId FluidServer::Admit(double amount, uint32_t slot, double weight,
                                          double share_weight) {
  MONO_CHECK(amount >= 0);
  MONO_CHECK(static_cast<bool>(callbacks_[slot].done));
  MONO_CHECK(weight > 0);
  if (share_weight == kSameAsWeight) {
    share_weight = weight;
  }
  MONO_CHECK(share_weight > 0);
  AdvanceProgress();
  const RequestId id = next_id_++;
  callbacks_[slot].id = id;
  active_.push_back(Request{amount, weight, share_weight, 0.0, slot});
  Reschedule();
  return id;
}

double FluidServer::CancelRequest(RequestId id) {
  AdvanceProgress();
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    CallbackSlot& slot = callbacks_[it->slot];
    if (slot.id == id) {
      const double remaining = it->remaining;
      slot.done.reset();
      free_slots_.push_back(it->slot);
      active_.erase(it);  // Order-preserving; the active set stays in admission order.
      Reschedule();
      return remaining;
    }
  }
  MONO_CHECK_MSG(false, "CancelRequest: unknown request id");
  return 0.0;
}

void FluidServer::AdvanceProgress() {
  const SimTime now = sim_->now();
  const SimTime dt = now - last_update_;
  if (dt > SimTime()) {
    double rate_sum = 0.0;
    for (auto& req : active_) {
      // Clamp exactly as total_served() does for its between-events extrapolation:
      // a completion event can fire a rounding error past a request's finish time,
      // and crediting the overshoot would let served_ drift past the
      // served-conservation bound over long runs.
      const double served = std::min(req.remaining, req.rate * dt.seconds());
      req.remaining -= served;
      served_ += served;
      rate_sum += req.rate;
    }
    // The active set and its rates were constant over [last_update_, now], so
    // this dt is wholly busy or wholly idle, and saturated iff the granted
    // rates consumed the instantaneous capacity.
    if (!active_.empty()) {
      busy_seconds_ += dt;
      if (rate_sum >= last_capacity_ - 1e-9 * std::max(1.0, last_capacity_)) {
        saturated_seconds_ += dt;
      }
    }
  }
  last_update_ = now;
}

void FluidServer::Reschedule() {
  // Recompute per-request rates for the current active set, their total, and
  // the earliest finish.
  double total_rate = 0.0;
  SimTime min_time{std::numeric_limits<double>::infinity()};
  if (!active_.empty()) {
    double total_weight = 0.0;
    double share_sum = 0.0;
    for (const Request& req : active_) {
      total_weight += req.weight;
      share_sum += req.share_weight;
    }
    const double cap = capacity_(total_weight);
    MONO_CHECK_MSG(cap > 0, "capacity function must be positive for active requests");
    last_capacity_ = cap;
    max_capacity_seen_ = std::max(max_capacity_seen_, cap);
    if (per_request_cap_ != kUnlimited) {
      WaterFillCapped(cap, share_sum);
    }
    for (Request& req : active_) {
      if (per_request_cap_ == kUnlimited) {
        // Nothing can pin: the proportional share is the whole water-fill.
        req.rate = cap * req.share_weight / share_sum;
      }
      total_rate += req.rate;
      if (req.rate > 0) {
        min_time = std::min(min_time, SimTime(req.remaining / req.rate));
      }
    }
  } else {
    last_capacity_ = 0.0;
  }
  if (trace_enabled_) {
    // Forced: every Reschedule is an active-set change, which is a real trace
    // point even when the total rate happens to come out unchanged (e.g. a cancel
    // under a constant-capacity server).
    rate_trace_.Record(last_update_, total_rate, /*force_point=*/true);
  }
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    const double denom = nominal_capacity_ > 0 ? nominal_capacity_ : 1.0;
    tracer->Counter("devices", name_, last_update_.seconds(), total_rate / denom);
  }
  // The states visible between events (where contention bugs live) can only be
  // checked here, not from the simulation's event-boundary sweep.
  if (SimAudit* audit = SimAudit::current()) {
    AuditInvariants(*audit, AuditPhase::kEventBoundary);
  }

  // Schedule (or clear) the single completion event for the earliest finisher.
  completion_event_.Cancel();
  if (active_.empty()) {
    return;
  }
  MONO_CHECK_MSG(std::isfinite(min_time.seconds()),
                 "active request with zero rate would never finish");
  completion_event_ =
      sim_->ScheduleAfter(min_time, [this] { OnCompletionEvent(); }, "fluid-complete");
}

void FluidServer::WaterFillCapped(double cap, double share_sum) {
  // Weighted fair sharing with a per-request ceiling: start from shares
  // proportional to share weight and water-fill. A request whose proportional
  // share reaches the cap is pinned to it and drops out; the capacity it leaves
  // behind is re-split (again by share weight) among the rest. Every pass pins
  // at least one request or terminates, so the loop runs at most n times. A
  // pass that pins nothing leaves every open request at its proportional
  // share, which is its final rate.
  std::vector<Request*>& open = reschedule_open_;
  open.clear();
  for (Request& req : active_) {
    open.push_back(&req);
  }
  double remaining_cap = cap;
  double open_weight = share_sum;
  while (!open.empty()) {
    const double pass_cap = remaining_cap;
    double kept_weight = 0.0;
    size_t kept = 0;
    for (Request* req : open) {
      const double proportional = pass_cap * req->share_weight / open_weight;
      if (proportional >= per_request_cap_) {
        req->rate = per_request_cap_;
        remaining_cap -= per_request_cap_;
      } else {
        req->rate = proportional;
        kept_weight += req->share_weight;
        open[kept++] = req;
      }
    }
    if (kept == open.size()) {
      break;
    }
    open.resize(kept);
    open_weight = kept_weight;
  }
}

void FluidServer::OnCompletionEvent() {
  AdvanceProgress();
  // Collect completions first: `done` callbacks may re-enter Submit(). The
  // member scratch keeps its capacity across completions; a re-entrant
  // invocation (a done callback driving the simulation back into this server)
  // finds it busy and falls back to a one-off local batch.
  std::vector<InlineCallback> local;
  std::vector<InlineCallback>& done_callbacks =
      done_scratch_.empty() ? done_scratch_ : local;
  size_t out = 0;
  for (const Request& req : active_) {
    const double eps = std::max(req.rate, 1.0) * kCompletionEpsilonSeconds;
    if (req.remaining <= eps) {
      done_callbacks.push_back(std::move(callbacks_[req.slot].done));
      free_slots_.push_back(req.slot);
    } else {
      active_[out++] = req;
    }
  }
  active_.resize(out);
  Reschedule();
  for (InlineCallback& done : done_callbacks) {
    done();
  }
  done_callbacks.clear();
}

double FluidServer::total_served() const {
  // Include progress accrued since the last bookkeeping update.
  double extra = 0.0;
  const SimTime dt = sim_->now() - last_update_;
  if (dt > SimTime()) {
    for (const auto& req : active_) {
      extra += std::min(req.remaining, req.rate * dt.seconds());
    }
  }
  return served_ + extra;
}

void FluidServer::EnableTrace() {
  trace_enabled_ = true;
  if (rate_trace_.empty()) {
    rate_trace_.Record(sim_->now(), 0.0);
  }
}

double FluidServer::MeanUtilization(SimTime from, SimTime to) const {
  MONO_CHECK(trace_enabled_);
  return rate_trace_.MeanUtilization(from, to, nominal_capacity_);
}

void AuditFluidShares(SimAudit& audit, SimTime now, const char* source,
                      std::span<const FluidServer::ShareInfo> shares, double capacity,
                      double per_request_cap) {
  const double eps = 1e-9 * std::max(1.0, capacity);
  const bool has_cap = per_request_cap != FluidServer::kUnlimited;
  double total_rate = 0.0;
  double reference_ratio = -1.0;
  for (const FluidServer::ShareInfo& share : shares) {
    total_rate += share.rate;
    audit.ExpectLazy(share.rate >= 0.0, now, source, "rate-non-negative", [&] {
      std::ostringstream d;
      d << "request " << share.id << " has rate " << share.rate;
      return d.str();
    });
    const bool capped = has_cap && share.rate >= per_request_cap - eps;
    if (has_cap) {
      audit.ExpectLazy(share.rate <= per_request_cap + eps, now, source, "per-request-cap",
                       [&] {
                         std::ostringstream d;
                         d << "request " << share.id << " rate " << share.rate
                           << " exceeds cap " << per_request_cap;
                         return d.str();
                       });
    }
    if (!capped) {
      // Weighted fairness: every request not pinned at the per-request cap must
      // receive rate proportional to its share weight (equal rate/share ratios).
      const double ratio = share.rate / share.share_weight;
      if (reference_ratio < 0.0) {
        reference_ratio = ratio;
      } else {
        const bool proportional =
            std::abs(ratio - reference_ratio) <=
            1e-6 * std::max(ratio, reference_ratio) + eps;
        audit.ExpectLazy(proportional, now, source, "weighted-share", [&] {
          std::ostringstream d;
          d << "request " << share.id << " rate/weight " << ratio
            << " != reference " << reference_ratio
            << " (shares not proportional to weights)";
          return d.str();
        });
      }
    }
  }
  if (!shares.empty()) {
    audit.ExpectLazy(total_rate <= capacity + eps, now, source, "rate-conservation", [&] {
      std::ostringstream d;
      d << "total rate " << total_rate << " exceeds instantaneous capacity " << capacity;
      return d.str();
    });
  }
}

std::span<const FluidServer::ShareInfo> FluidServer::Shares() const {
  shares_.clear();
  for (const Request& req : active_) {
    shares_.push_back(ShareInfo{callbacks_[req.slot].id, req.rate, req.share_weight});
  }
  return shares_;
}

void FluidServer::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  const SimTime now = sim_->now();
  const char* source = name_.c_str();
  AuditFluidShares(audit, now, source, Shares(), last_capacity_, per_request_cap_);

  // Served work can never exceed the largest capacity ever granted × elapsed time.
  const double elapsed = (now - created_at_).seconds();
  const double bound = std::max(nominal_capacity_, max_capacity_seen_) * elapsed;
  const double served = total_served();
  audit.ExpectLazy(served <= bound + 1e-6 * std::max(1.0, bound), now, source,
                   "served-conservation", [&] {
                     std::ostringstream d;
                     d << "served " << served << " exceeds capacity bound " << bound
                       << " over " << elapsed << "s";
                     return d.str();
                   });

  if (phase == AuditPhase::kDrain) {
    audit.ExpectLazy(active_.empty(), now, source, "drained", [&] {
      std::ostringstream d;
      d << active_.size() << " request(s) still active after the event queue drained";
      return d.str();
    });
  }
}

CapacityFn ConstantCapacity(double capacity) {
  MONO_CHECK(capacity > 0);
  return [capacity](double) { return capacity; };
}

CapacityFn HddCapacity(double bandwidth, double alpha) {
  MONO_CHECK(bandwidth > 0);
  MONO_CHECK(alpha >= 0);
  return [bandwidth, alpha](double active_weight) {
    return bandwidth / (1.0 + alpha * std::max(0.0, active_weight - 1.0));
  };
}

CapacityFn SsdCapacity(double bandwidth, int channels, double single_stream_fraction) {
  MONO_CHECK(bandwidth > 0);
  MONO_CHECK(channels >= 1);
  MONO_CHECK(single_stream_fraction > 0 && single_stream_fraction <= 1.0);
  return [bandwidth, channels, single_stream_fraction](double active_weight) {
    if (channels == 1) {
      return bandwidth;  // A single channel is saturated by any one request.
    }
    const double n = std::min(active_weight, static_cast<double>(channels));
    if (n <= 1.0) {
      return bandwidth * single_stream_fraction;
    }
    // Linear ramp from single_stream_fraction (one request) to 1.0 (channels busy).
    const double frac = single_stream_fraction + (1.0 - single_stream_fraction) *
                                                     (n - 1.0) /
                                                     static_cast<double>(channels - 1);
    return bandwidth * frac;
  };
}

}  // namespace monosim
