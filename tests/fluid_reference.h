// Reference fluid server for the FluidServer property tests.
//
// A deliberately plain copy of the weighted water-fill FluidServer used before
// its request path was made one-pass: requests (callback included) live in one
// vector, every Reschedule recomputes each proportional share twice and erases
// pinned requests from the open set, and the earliest finish is a separate
// scan. It keeps the same float expressions, summation orders and kernel calls
// (one cancel and one "fluid-complete" schedule per reschedule), so a server
// that optimises the request path must match it bit for bit: rates, completion
// times, completion order and returned remaining work.
#ifndef MONOTASKS_TESTS_FLUID_REFERENCE_H_
#define MONOTASKS_TESTS_FLUID_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/simcore/fluid_server.h"
#include "src/simcore/simulation.h"

namespace monosim {
namespace testutil {

class ReferenceFluidServer {
 public:
  using RequestId = FluidServer::RequestId;

  ReferenceFluidServer(Simulation* sim, CapacityFn capacity,
                       double per_request_cap = FluidServer::kUnlimited)
      : sim_(sim),
        capacity_(std::move(capacity)),
        per_request_cap_(per_request_cap),
        last_update_(sim->now()) {}

  ReferenceFluidServer(const ReferenceFluidServer&) = delete;
  ReferenceFluidServer& operator=(const ReferenceFluidServer&) = delete;

  RequestId Submit(double amount, std::function<void()> done, double weight = 1.0,
                   double share_weight = FluidServer::kSameAsWeight) {
    if (share_weight == FluidServer::kSameAsWeight) {
      share_weight = weight;
    }
    AdvanceProgress();
    const RequestId id = next_id_++;
    active_.push_back(Request{id, amount, weight, share_weight, 0.0, std::move(done)});
    Reschedule();
    return id;
  }

  double CancelRequest(RequestId id) {
    AdvanceProgress();
    for (auto it = active_.begin(); it != active_.end(); ++it) {
      if (it->id == id) {
        const double remaining = it->remaining;
        active_.erase(it);
        Reschedule();
        return remaining;
      }
    }
    MONO_CHECK_MSG(false, "CancelRequest: unknown request id");
    return 0.0;
  }

  // The active requests' (id, rate, share weight), in admission order.
  std::vector<FluidServer::ShareInfo> Shares() const {
    std::vector<FluidServer::ShareInfo> shares;
    for (const Request& req : active_) {
      shares.push_back(FluidServer::ShareInfo{req.id, req.rate, req.share_weight});
    }
    return shares;
  }

  double total_served() const {
    double extra = 0.0;
    const SimTime dt = sim_->now() - last_update_;
    if (dt > SimTime()) {
      for (const Request& req : active_) {
        extra += std::min(req.remaining, req.rate * dt.seconds());
      }
    }
    return served_ + extra;
  }

 private:
  struct Request {
    RequestId id;
    double remaining;
    double weight;
    double share_weight;
    double rate;
    std::function<void()> done;
  };

  void AdvanceProgress() {
    const SimTime dt = sim_->now() - last_update_;
    if (dt > SimTime()) {
      for (Request& req : active_) {
        const double served = std::min(req.remaining, req.rate * dt.seconds());
        req.remaining -= served;
        served_ += served;
      }
    }
    last_update_ = sim_->now();
  }

  void Reschedule() {
    if (!active_.empty()) {
      double total_weight = 0.0;
      for (const Request& req : active_) {
        total_weight += req.weight;
      }
      double remaining_cap = capacity_(total_weight);
      std::vector<Request*> open;
      for (Request& req : active_) {
        open.push_back(&req);
      }
      while (!open.empty()) {
        double open_weight = 0.0;
        for (const Request* req : open) {
          open_weight += req->share_weight;
        }
        const double pass_cap = remaining_cap;
        bool pinned_any = false;
        for (auto it = open.begin(); it != open.end();) {
          const double proportional = pass_cap * (*it)->share_weight / open_weight;
          if (per_request_cap_ != FluidServer::kUnlimited &&
              proportional >= per_request_cap_) {
            (*it)->rate = per_request_cap_;
            remaining_cap -= per_request_cap_;
            it = open.erase(it);
            pinned_any = true;
          } else {
            ++it;
          }
        }
        if (!pinned_any) {
          for (Request* req : open) {
            req->rate = pass_cap * req->share_weight / open_weight;
          }
          break;
        }
      }
    }
    completion_event_.Cancel();
    if (active_.empty()) {
      return;
    }
    SimTime min_time{std::numeric_limits<double>::infinity()};
    for (const Request& req : active_) {
      if (req.rate > 0) {
        min_time = std::min(min_time, SimTime(req.remaining / req.rate));
      }
    }
    completion_event_ =
        sim_->ScheduleAfter(min_time, [this] { OnCompletionEvent(); }, "fluid-complete");
  }

  void OnCompletionEvent() {
    AdvanceProgress();
    std::vector<std::function<void()>> finished;
    std::vector<Request> still_active;
    for (Request& req : active_) {
      if (req.remaining <= std::max(req.rate, 1.0) * 1e-9) {
        finished.push_back(std::move(req.done));
      } else {
        still_active.push_back(std::move(req));
      }
    }
    active_ = std::move(still_active);
    Reschedule();
    for (std::function<void()>& done : finished) {
      done();
    }
  }

  Simulation* sim_;
  CapacityFn capacity_;
  double per_request_cap_;
  std::vector<Request> active_;
  RequestId next_id_ = 1;
  SimTime last_update_;
  double served_ = 0.0;
  EventHandle completion_event_;
};

}  // namespace testutil
}  // namespace monosim

#endif  // MONOTASKS_TESTS_FLUID_REFERENCE_H_
