// SimulatedBlockDevice: a rate-limited, in-memory block store standing in for one
// physical disk in the threaded execution engine.
//
// Blocks are named byte buffers. Read and Write block the *calling thread* for as
// long as the transfer would take at the device's configured bandwidth, which is how
// the engine's per-disk scheduler threads experience realistic device timing without
// touching real disks. Bandwidth can be time-scaled so tests run "ten seconds of
// disk" in milliseconds while preserving relative timing.
#ifndef MONOTASKS_SRC_ENGINE_BLOCK_DEVICE_H_
#define MONOTASKS_SRC_ENGINE_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/rate_limiter.h"
#include "src/common/thread_annotations.h"
#include "src/common/units.h"

namespace monotasks {

using Buffer = std::vector<uint8_t>;

class SimulatedBlockDevice {
 public:
  // `bandwidth` applies to both reads and writes. `time_scale` > 1 makes the device
  // proportionally faster in wall-clock terms (for tests). It has no default on
  // purpose: EngineConfig defaults to 50.0, so a device built with a silent 1.0
  // here would run 50x slower than its siblings and skew the §6 model bridge by
  // the same factor — every construction must state its scale. `seek_alpha`
  // models head contention: an operation that overlaps n-1 others is charged
  // (1 + seek_alpha * (n - 1)) times its bytes, so interleaved accessors lose
  // aggregate throughput exactly as on a real HDD — and a scheduler that runs one
  // operation at a time (the monotasks disk scheduler) never pays it.
  SimulatedBlockDevice(std::string name, monoutil::BytesPerSecond bandwidth,
                       double time_scale, double seek_alpha = 0.0);

  SimulatedBlockDevice(const SimulatedBlockDevice&) = delete;
  SimulatedBlockDevice& operator=(const SimulatedBlockDevice&) = delete;

  // Durably stores `data` under `block_id`, blocking for the transfer time.
  // Overwrites any existing block of the same id.
  void Write(const std::string& block_id, Buffer data);

  // Reads a whole block, blocking for the transfer time. Aborts if missing.
  Buffer Read(const std::string& block_id);

  // Reads `length` bytes at `offset` of a block (used to serve shuffle segments).
  Buffer ReadRange(const std::string& block_id, size_t offset, size_t length);

  bool HasBlock(const std::string& block_id) const;
  // Size of a stored block; aborts if missing.
  size_t BlockSize(const std::string& block_id) const;
  void DeleteBlock(const std::string& block_id);

  monoutil::Bytes bytes_read() const { return monoutil::Bytes(bytes_read_.load()); }
  monoutil::Bytes bytes_written() const {
    return monoutil::Bytes(bytes_written_.load());
  }
  // Bytes actually charged against the device's bandwidth, including the seek
  // surcharge for overlapping operations (>= bytes_read + bytes_written).
  monoutil::Bytes charged_bytes() const {
    return monoutil::Bytes(charged_bytes_.load());
  }
  // Operations currently in service.
  int active_ops() const { return active_ops_.load(); }
  const std::string& name() const { return name_; }

 private:
  // Charges the limiter for `bytes` plus the contention surcharge.
  void ConsumeWithContention(monoutil::Bytes bytes);

  std::string name_;
  monoutil::RateLimiter limiter_;
  double seek_alpha_;
  std::atomic<int> active_ops_{0};
  mutable monoutil::Mutex mutex_;
  std::unordered_map<std::string, Buffer> blocks_ GUARDED_BY(mutex_);
  // Atomic counters hold raw int64 byte counts (std::atomic<Bytes> would need
  // the wrapper to be an atomic-friendly scalar); accessors re-wrap them.
  std::atomic<int64_t> bytes_read_{0};
  std::atomic<int64_t> bytes_written_{0};
  std::atomic<int64_t> charged_bytes_{0};
};

}  // namespace monotasks

#endif  // MONOTASKS_SRC_ENGINE_BLOCK_DEVICE_H_
