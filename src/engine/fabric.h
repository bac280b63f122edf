// InProcessFabric: the network connecting the engine's workers, all in one process.
//
// Each worker has a full-duplex NIC modeled as a pair of rate limiters. A transfer
// consumes bandwidth at both the sender's egress and the receiver's ingress, blocking
// the calling thread for the transfer time, so concurrent transfers into one worker
// share its ingress exactly the way real flows share a NIC.
#ifndef MONOTASKS_SRC_ENGINE_FABRIC_H_
#define MONOTASKS_SRC_ENGINE_FABRIC_H_

#include <atomic>
#include <memory>
#include <vector>

#include "src/common/rate_limiter.h"
#include "src/common/units.h"

namespace monotasks {

class InProcessFabric {
 public:
  // `time_scale` deliberately has no default — see SimulatedBlockDevice: the
  // engine's config default (50.0) and a silent component default would mix
  // wall-clock scales within one run.
  InProcessFabric(int num_workers, monoutil::BytesPerSecond nic_bandwidth,
                  double time_scale);

  InProcessFabric(const InProcessFabric&) = delete;
  InProcessFabric& operator=(const InProcessFabric&) = delete;

  // Accounts a transfer of `bytes` from `src` to `dst`, blocking the calling thread
  // for the transfer time. Local transfers (src == dst) are free.
  void Transfer(int src, int dst, monoutil::Bytes bytes);

  int num_workers() const { return static_cast<int>(egress_.size()); }
  monoutil::Bytes total_bytes() const { return monoutil::Bytes(total_bytes_.load()); }

 private:
  // Thread safety: the limiter vectors are immutable after construction (each
  // RateLimiter locks internally, see rate_limiter.h); the only mutable state
  // here is atomic.
  std::vector<std::unique_ptr<monoutil::RateLimiter>> egress_;
  std::vector<std::unique_ptr<monoutil::RateLimiter>> ingress_;
  std::atomic<int64_t> total_bytes_{0};  // Raw count: atomics need a scalar.
};

}  // namespace monotasks

#endif  // MONOTASKS_SRC_ENGINE_FABRIC_H_
