// BufferCacheSim: the OS page cache's write-back behaviour, per machine.
//
// This models the paper's third clarity challenge (§2.2): "resource use occurs outside
// the control of the analytics framework". Spark's disk writes complete into the cache
// at memory speed; the OS later flushes dirty pages through the disk, contending with
// the framework's own reads and writes. Small outputs may never touch the disk during
// the job at all (the query 1c effect in §5.3), while large outputs exceed the dirty
// limit and throttle writers to disk speed.
//
// Model:
//   * A cached write of n bytes completes after n / kMemoryBandwidth, provided the
//     dirty total stays under kDirtyLimit; otherwise the writer waits (FIFO) until
//     flushing frees headroom.
//   * Background writeback starts kWritebackDelay after the cache first becomes
//     dirty (re-armed whenever it drains), or immediately under pressure, and
//     issues kFlushChunk-sized writes to the dirtiest disk, one outstanding flush
//     per disk, through the same DiskSim the framework uses — so flushes contend.
#ifndef MONOTASKS_SRC_CLUSTER_BUFFER_CACHE_H_
#define MONOTASKS_SRC_CLUSTER_BUFFER_CACHE_H_

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/disk.h"
#include "src/simcore/audit.h"
#include "src/simcore/simulation.h"

namespace monosim {

class BufferCacheSim : public Auditable {
 public:
  // Owned by its MachineSim, which outlives the simulation run, so `this`
  // captures into the writeback timer and flush completions cannot dangle.
  MONO_SIM_OWNED;

  // Dirty bytes the OS tolerates before throttling writers into the disk (Linux's
  // dirty_ratio applied to the ~60 GB workers of §5.1).
  static constexpr monoutil::Bytes kDirtyLimit = monoutil::GiB(8);
  // Delay before background writeback begins flushing dirty data.
  static constexpr monoutil::SimTime kWritebackDelay = monoutil::Seconds(30);
  // Size of each background flush request issued to a disk.
  static constexpr monoutil::Bytes kFlushChunk = monoutil::MiB(16);
  // Memory copy bandwidth governing how fast a cached write "completes".
  static constexpr monoutil::BytesPerSecond kMemoryBandwidth = monoutil::GiBps(3);

  // `disks` must outlive the cache. One flusher state is kept per disk.
  BufferCacheSim(Simulation* sim, std::vector<DiskSim*> disks);
  ~BufferCacheSim() override;

  BufferCacheSim(const BufferCacheSim&) = delete;
  BufferCacheSim& operator=(const BufferCacheSim&) = delete;

  // Writes `bytes` destined for `disk_index` through the cache; `done` (any
  // void() callable, wrapped once against the simulation's arena) fires when the
  // write has been absorbed (memory-speed unless the cache is over its dirty limit).
  template <typename F>
  void Write(int disk_index, monoutil::Bytes bytes, F&& done) {
    WriteImpl(disk_index, bytes, WrapCallback(std::forward<F>(done), sim_->callback_arena()),
              /*sync=*/false);
  }

  // Like Write, but `done` fires only once the bytes are durable on the disk ("OS
  // configured to force writes to disk", §5.3). Data still flows through the cache's
  // flusher, so writes remain elevator-batched rather than issued per caller.
  template <typename F>
  void WriteSync(int disk_index, monoutil::Bytes bytes, F&& done) {
    WriteImpl(disk_index, bytes, WrapCallback(std::forward<F>(done), sim_->callback_arena()),
              /*sync=*/true);
  }

  // Dirty bytes not yet flushed to any disk.
  monoutil::Bytes total_dirty() const { return total_dirty_; }

  // Bytes flushed to disks so far by background writeback.
  monoutil::Bytes total_flushed() const { return total_flushed_; }

  // True if background writeback is actively issuing disk writes.
  bool flushing() const { return active_flushes_ > 0; }

  // Always-on saturation integral (telemetry tentpole): virtual time the
  // cache spent at or over its dirty limit — the window where writers run at
  // disk speed instead of memory speed (§2.2's invisible contention). The
  // companion per-writer stall distribution is the
  // "cache.blocked_write_wait_seconds" histogram in the metrics registry.
  monoutil::SimTime over_limit_seconds() const;

  // Invariant auditing (audit.h): byte conservation (per disk, submitted ==
  // flushed + dirty; total_dirty == Σ per-disk dirty), flusher bookkeeping
  // consistent, sync-waiter thresholds ascending and not yet reached, and no
  // dirty bytes, blocked writers, or sync waiters left when the simulation drains.
  void AuditInvariants(SimAudit& audit, AuditPhase phase) const override;

 private:
  struct PendingWrite {
    int disk_index;
    monoutil::Bytes bytes;
    InlineCallback done;
    bool sync = false;
    SimTime blocked_at;  // When the writer hit the dirty limit.
  };
  struct SyncWaiter {
    monoutil::Bytes flushed_threshold;
    InlineCallback done;
  };

  // Shared implementation behind the Write and WriteSync templates.
  void WriteImpl(int disk_index, monoutil::Bytes bytes, InlineCallback&& done, bool sync);
  void AdmitWrite(int disk_index, monoutil::Bytes bytes, InlineCallback&& done, bool sync);
  void MaybeStartWriteback(bool pressure);
  void PumpFlusher();
  void OnFlushDone(int disk_index, monoutil::Bytes bytes);
  void TraceDirtyBytes() const;

  // Folds the current over-limit span into the integral on limit-crossing
  // transitions; called after every total_dirty_ change.
  void UpdateOverLimit();

  Simulation* sim_;
  std::vector<DiskSim*> disks_;
  // Machine prefix for trace series ("machine3", from the disks' names).
  std::string trace_prefix_;

  std::vector<monoutil::Bytes> dirty_per_disk_;
  std::vector<monoutil::Bytes> submitted_per_disk_;
  std::vector<monoutil::Bytes> flushed_per_disk_;
  std::vector<std::deque<SyncWaiter>> sync_waiters_;  // Per disk, thresholds ascending.
  std::vector<bool> flush_in_flight_;
  monoutil::Bytes total_dirty_;
  monoutil::Bytes total_flushed_;
  int active_flushes_ = 0;
  bool writeback_armed_ = false;   // A delayed start is scheduled.
  bool writeback_running_ = false; // Writeback keeps pumping until the cache drains.
  EventHandle writeback_timer_;
  std::deque<PendingWrite> blocked_writes_;

  // Over-dirty-limit time (UpdateOverLimit / over_limit_seconds()).
  SimTime over_limit_seconds_;
  SimTime over_limit_since_;
  bool over_limit_ = false;
};

}  // namespace monosim

#endif  // MONOTASKS_SRC_CLUSTER_BUFFER_CACHE_H_
