#include "src/cluster/buffer_cache.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/metrics_registry.h"
#include "src/common/tracing/tracer.h"

namespace monosim {

using monoutil::Bytes;

BufferCacheSim::BufferCacheSim(Simulation* sim, std::vector<DiskSim*> disks)
    : sim_(sim),
      disks_(std::move(disks)),
      dirty_per_disk_(disks_.size(), Bytes()),
      submitted_per_disk_(disks_.size(), Bytes()),
      flushed_per_disk_(disks_.size(), Bytes()),
      sync_waiters_(disks_.size()),
      flush_in_flight_(disks_.size(), false) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK(!disks_.empty());
  // Disk names look like "machine3.disk0"; the machine part keys our traces.
  trace_prefix_ = disks_[0]->name().substr(0, disks_[0]->name().find('.'));
  sim_->RegisterAuditable(this);
}

void BufferCacheSim::TraceDirtyBytes() const {
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    tracer->Counter("os-cache", trace_prefix_ + ".dirty-bytes", sim_->now().seconds(),
                    static_cast<double>(total_dirty_.count()));
  }
}

void BufferCacheSim::UpdateOverLimit() {
  const bool over = total_dirty_ >= kDirtyLimit;
  if (over == over_limit_) {
    return;
  }
  const SimTime now = sim_->now();
  if (over_limit_) {
    over_limit_seconds_ += now - over_limit_since_;
  } else {
    over_limit_since_ = now;
  }
  over_limit_ = over;
}

SimTime BufferCacheSim::over_limit_seconds() const {
  SimTime total = over_limit_seconds_;
  if (over_limit_) {
    total += sim_->now() - over_limit_since_;
  }
  return total;
}

BufferCacheSim::~BufferCacheSim() {
  sim_->UnregisterAuditable(this);
}

void BufferCacheSim::AuditInvariants(SimAudit& audit, AuditPhase phase) const {
  const SimTime now = sim_->now();
  const char* source = "buffer-cache";

  Bytes dirty_sum;
  Bytes flushed_sum;
  int flushes_in_flight = 0;
  for (size_t d = 0; d < disks_.size(); ++d) {
    dirty_sum += dirty_per_disk_[d];
    flushed_sum += flushed_per_disk_[d];
    if (flush_in_flight_[d]) {
      ++flushes_in_flight;
    }
    audit.ExpectLazy(dirty_per_disk_[d] >= Bytes(0), now, source, "dirty-non-negative", [&] {
      std::ostringstream out;
      out << "disk " << d << " dirty " << dirty_per_disk_[d];
      return out.str();
    });
    // Conservation: every byte ever submitted for this disk is either still dirty
    // in the cache or has been flushed through the disk.
    audit.ExpectLazy(
        submitted_per_disk_[d] == flushed_per_disk_[d] + dirty_per_disk_[d], now,
        source, "byte-conservation", [&] {
          std::ostringstream out;
          out << "disk " << d << ": submitted " << submitted_per_disk_[d]
              << " != flushed " << flushed_per_disk_[d] << " + dirty "
              << dirty_per_disk_[d];
          return out.str();
        });
    // Sync waiters are queued in submission order, so their durability thresholds
    // must ascend, and a waiter whose threshold has been reached must already have
    // been released.
    Bytes previous_threshold = flushed_per_disk_[d];
    for (const SyncWaiter& waiter : sync_waiters_[d]) {
      audit.ExpectLazy(waiter.flushed_threshold > flushed_per_disk_[d], now, source,
                       "sync-waiter-released", [&] {
                         std::ostringstream out;
                         out << "disk " << d << " waiter threshold "
                             << waiter.flushed_threshold << " already flushed ("
                             << flushed_per_disk_[d] << ") but not released";
                         return out.str();
                       });
      audit.ExpectLazy(waiter.flushed_threshold >= previous_threshold, now, source,
                       "sync-waiter-order", [&] {
                         std::ostringstream out;
                         out << "disk " << d << " waiter thresholds out of order: "
                             << waiter.flushed_threshold << " after "
                             << previous_threshold;
                         return out.str();
                       });
      previous_threshold = waiter.flushed_threshold;
    }
  }
  audit.ExpectLazy(total_dirty_ == dirty_sum, now, source, "dirty-total", [&] {
    std::ostringstream out;
    out << "total_dirty " << total_dirty_ << " != per-disk sum " << dirty_sum;
    return out.str();
  });
  audit.ExpectLazy(total_flushed_ == flushed_sum, now, source, "flushed-total", [&] {
    std::ostringstream out;
    out << "total_flushed " << total_flushed_ << " != per-disk sum " << flushed_sum;
    return out.str();
  });
  audit.ExpectLazy(active_flushes_ == flushes_in_flight, now, source,
                   "flusher-bookkeeping", [&] {
                     std::ostringstream out;
                     out << "active_flushes " << active_flushes_ << " != in-flight "
                         << flushes_in_flight;
                     return out.str();
                   });

  if (phase == AuditPhase::kDrain) {
    audit.ExpectLazy(total_dirty_ == Bytes(0), now, source, "drained-dirty", [&] {
      std::ostringstream out;
      out << total_dirty_ << " dirty byte(s) left after the event queue drained";
      return out.str();
    });
    audit.ExpectLazy(blocked_writes_.empty(), now, source, "drained-blocked-writers",
                     [&] {
                       std::ostringstream out;
                       out << blocked_writes_.size()
                           << " blocked writer(s) left after the event queue drained";
                       return out.str();
                     });
    size_t waiters = 0;
    for (const auto& queue : sync_waiters_) {
      waiters += queue.size();
    }
    audit.ExpectLazy(waiters == 0, now, source, "drained-sync-waiters", [&] {
      std::ostringstream out;
      out << waiters << " sync waiter(s) left after the event queue drained";
      return out.str();
    });
  }
}

void BufferCacheSim::WriteImpl(int disk_index, Bytes bytes, InlineCallback&& done,
                               bool sync) {
  MONO_CHECK(disk_index >= 0 && static_cast<size_t>(disk_index) < disks_.size());
  MONO_CHECK(bytes >= Bytes(0));
  if (total_dirty_ + bytes > kDirtyLimit && total_dirty_ > Bytes(0)) {
    // Over the dirty limit: throttle the writer until flushing frees headroom, and
    // make sure flushing is actually running.
    blocked_writes_.push_back(
        PendingWrite{disk_index, bytes, std::move(done), sync, sim_->now()});
    MaybeStartWriteback(/*pressure=*/true);
    return;
  }
  AdmitWrite(disk_index, bytes, std::move(done), sync);
}

void BufferCacheSim::AdmitWrite(int disk_index, Bytes bytes, InlineCallback&& done,
                                bool sync) {
  const auto d = static_cast<size_t>(disk_index);
  dirty_per_disk_[d] += bytes;
  submitted_per_disk_[d] += bytes;
  total_dirty_ += bytes;
  UpdateOverLimit();
  TraceDirtyBytes();
  if (sync) {
    // Completion is deferred until everything submitted to this disk so far —
    // including these bytes — has been flushed. Flushing is FIFO per disk, so
    // thresholds are reached in order.
    sync_waiters_[d].push_back(SyncWaiter{submitted_per_disk_[d], std::move(done)});
    MaybeStartWriteback(/*pressure=*/true);
    return;
  }
  const SimTime copy_time = bytes / kMemoryBandwidth;
  sim_->ScheduleAfter(copy_time, std::move(done), "cache-copy");
  MaybeStartWriteback(/*pressure=*/total_dirty_ >= kDirtyLimit);
}

void BufferCacheSim::MaybeStartWriteback(bool pressure) {
  if (writeback_running_ || total_dirty_ == Bytes(0)) {
    return;
  }
  if (pressure) {
    writeback_timer_.Cancel();
    writeback_armed_ = false;
    writeback_running_ = true;
    PumpFlusher();
    return;
  }
  if (!writeback_armed_) {
    writeback_armed_ = true;
    writeback_timer_ = sim_->ScheduleAfter(
        kWritebackDelay,
        [this] {
          writeback_armed_ = false;
          if (total_dirty_ > Bytes(0)) {
            writeback_running_ = true;
            PumpFlusher();
          }
        },
        "cache-writeback");
  }
}

void BufferCacheSim::PumpFlusher() {
  if (!writeback_running_) {
    return;
  }
  if (total_dirty_ == Bytes(0) && active_flushes_ == 0) {
    // Cache fully drained; future writes re-arm the delayed writeback timer.
    writeback_running_ = false;
    return;
  }
  // Issue one flush per idle disk, dirtiest disk's data first.
  for (size_t d = 0; d < disks_.size(); ++d) {
    if (flush_in_flight_[d] || dirty_per_disk_[d] == Bytes(0)) {
      continue;
    }
    const Bytes chunk = std::min(dirty_per_disk_[d], kFlushChunk);
    flush_in_flight_[d] = true;
    ++active_flushes_;
    const int disk_index = static_cast<int>(d);
    const SimTime flush_start = sim_->now();
    disks_[d]->Write(chunk, [this, disk_index, chunk, flush_start] {
      // Deliberately stage-untagged: writeback is the "resource use outside the
      // framework's control" of §2.2 — the trace report surfaces it as
      // unattributed disk time.
      if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
        tracer->CompleteOnLane("os-cache",
                               disks_[static_cast<size_t>(disk_index)]->name() + ".flush",
                               "writeback-flush", "disk", flush_start.seconds(),
                               sim_->now().seconds());
      }
      OnFlushDone(disk_index, chunk);
    });
  }
}

void BufferCacheSim::OnFlushDone(int disk_index, Bytes bytes) {
  const auto d = static_cast<size_t>(disk_index);
  MONO_CHECK(flush_in_flight_[d]);
  flush_in_flight_[d] = false;
  --active_flushes_;
  dirty_per_disk_[d] -= bytes;
  flushed_per_disk_[d] += bytes;
  total_dirty_ -= bytes;
  total_flushed_ += bytes;
  MONO_CHECK(dirty_per_disk_[d] >= Bytes(0));
  UpdateOverLimit();
  TraceDirtyBytes();
  static monotrace::MetricCounter* flushed_metric =
      monotrace::MetricsRegistry::Global().Get("cache.bytes_flushed");
  flushed_metric->Add(static_cast<double>(bytes.count()));

  // Release sync writers whose bytes are now durable.
  while (!sync_waiters_[d].empty() &&
         sync_waiters_[d].front().flushed_threshold <= flushed_per_disk_[d]) {
    auto done = std::move(sync_waiters_[d].front().done);
    sync_waiters_[d].pop_front();
    done();
  }

  // Admit throttled writers that now fit under the limit. A write larger than the
  // limit itself is admitted once the cache is empty (it then flushes under pressure).
  while (!blocked_writes_.empty() &&
         (total_dirty_ == Bytes(0) ||
          total_dirty_ + blocked_writes_.front().bytes <= kDirtyLimit)) {
    PendingWrite write = std::move(blocked_writes_.front());
    blocked_writes_.pop_front();
    if (monotrace::TelemetryEnabled()) {
      static monotrace::LatencyHistogram* wait_hist =
          monotrace::MetricsRegistry::Global().Histogram(
              "cache.blocked_write_wait_seconds");
      wait_hist->Add((sim_->now() - write.blocked_at).seconds());
    }
    AdmitWrite(write.disk_index, write.bytes, std::move(write.done), write.sync);
  }
  PumpFlusher();
}

}  // namespace monosim
