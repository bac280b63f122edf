#include "src/simcore/simulation.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "src/common/check.h"

namespace monosim {

namespace {

SimDigestTrail*& CurrentTrailSlot() {
  static SimDigestTrail* current = nullptr;
  return current;
}

// The simulation currently inside Step(), so the MONO_CHECK failure hook can
// dump its flight recorder. A plain stack via `previous` capture handles the
// (rare) nested case of one simulation's event running another simulation.
thread_local Simulation* g_stepping_sim = nullptr;

void DumpSteppingSimOnCheckFailure() {
  if (g_stepping_sim != nullptr) {
    g_stepping_sim->DumpFlightRecorder(stderr);
  }
}

void InstallCheckFailureDumpOnce() {
  static const bool installed = [] {
    monoutil::SetCheckFailureHook(&DumpSteppingSimOnCheckFailure);
    return true;
  }();
  (void)installed;
}

}  // namespace

SimDigestTrail::SimDigestTrail() : previous_(CurrentTrailSlot()) {
  CurrentTrailSlot() = this;
}

SimDigestTrail::~SimDigestTrail() { CurrentTrailSlot() = previous_; }

SimDigestTrail* SimDigestTrail::current() { return CurrentTrailSlot(); }

void EventHandle::Cancel() {
  Simulation* sim = owner_ != nullptr ? *owner_ : nullptr;
  if (sim != nullptr && record_ != nullptr) {
    sim->CancelRecord(record_, generation_);
  }
}

bool EventHandle::pending() const {
  // The record pointer is only dereferenceable while the Simulation (and with
  // it the slab pool) is alive; a matching generation means the record still
  // belongs to this handle's event (neither fired nor recycled).
  Simulation* sim = owner_ != nullptr ? *owner_ : nullptr;
  return sim != nullptr && record_ != nullptr &&
         record_->generation == generation_ && !record_->cancelled;
}

Simulation::Simulation() : self_slot_(std::make_shared<Simulation*>(this)) {
  // The hook is global and idempotent; installing from the constructor keeps
  // it out of the per-event path.
  InstallCheckFailureDumpOnce();
}

Simulation::~Simulation() {
  if (SimDigestTrail* trail = SimDigestTrail::current()) {
    trail->Record(fired_, digest_);
  }
  // Outstanding handles become inert: their Cancel()/pending() must not touch
  // the slab pool once it is freed below.
  *self_slot_ = nullptr;
}

void Simulation::DumpFlightRecorder(std::FILE* out) const {
  std::fprintf(out, "simulation: t=%.9g fired=%llu digest=%016llx\n", now_.seconds(),
               static_cast<unsigned long long>(fired_),
               static_cast<unsigned long long>(digest_));
  recorder_.Dump(out);
}

void Simulation::GrowRecordPool() {
  auto slab = std::make_unique<EventRecord[]>(kRecordsPerSlab);
  // Thread the fresh records onto the free list back to front, so the pool
  // hands them out in slab order (stable, address-independent behaviour).
  for (size_t i = kRecordsPerSlab; i-- > 0;) {
    slab[i].next_free = free_records_;
    free_records_ = &slab[i];
  }
  slabs_.push_back(std::move(slab));
}

EventRecord* Simulation::AllocRecord() {
  if (free_records_ == nullptr) {
    GrowRecordPool();
  }
  EventRecord* record = free_records_;
  free_records_ = record->next_free;
  record->next_free = nullptr;
  return record;
}

void Simulation::FreeRecord(EventRecord* record) {
  record->fn.reset();  // Returns any arena block; captured state dies here.
  record->cancelled = false;
  record->tag = "";
  // Invalidate every outstanding handle to the event this record carried.
  ++record->generation;
  record->next_free = free_records_;
  free_records_ = record;
}

void Simulation::CancelRecord(EventRecord* record, uint64_t generation) {
  if (record->generation != generation || record->cancelled) {
    return;  // Already fired/recycled, or already a tombstone.
  }
  record->cancelled = true;
  record->fn.reset();  // Release captured state promptly.
  ++tombstones_;
}

EventHandle Simulation::ScheduleRecord(SimTime when, InlineCallback&& fn,
                                       const char* tag) {
  MONO_CHECK_MSG(when >= now_, "cannot schedule an event in the past");
  MONO_CHECK(static_cast<bool>(fn));
  MONO_CHECK(tag != nullptr);
  EventRecord* record = AllocRecord();
  record->fn = std::move(fn);
  record->tag = tag;
  const uint64_t seq = next_seq_++;
  if (BeforeLimit(when, seq)) {
    // Due before the current batch's boundary: joins the near heap so pops
    // interleave it correctly with the sorted batch.
    near_heap_.push_back(QueueEntry{when, seq, record});
    SiftUp(near_heap_.size() - 1);
  } else {
    // The common case — at or beyond the boundary: one unsorted append, no
    // sift. Ordering is recovered in batch when the entry migrates near.
    far_.push_back(QueueEntry{when, seq, record});
  }
  MaybeCompact();
  return EventHandle(self_slot_, record, record->generation);
}

void Simulation::MixDigest(SimTime when, uint64_t seq, const char* tag) {
  constexpr uint64_t kFnvPrime = 1099511628211ULL;
  const auto mix_bytes = [this](const unsigned char* data, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      digest_ ^= data[i];
      digest_ *= kFnvPrime;
    }
  };
  static_assert(sizeof(SimTime) == sizeof(uint64_t));
  const double when_seconds = when.seconds();
  uint64_t when_bits = 0;
  std::memcpy(&when_bits, &when_seconds, sizeof(when_bits));
  mix_bytes(reinterpret_cast<const unsigned char*>(&when_bits), sizeof(when_bits));
  mix_bytes(reinterpret_cast<const unsigned char*>(&seq), sizeof(seq));
  mix_bytes(reinterpret_cast<const unsigned char*>(tag), std::strlen(tag));
}

void Simulation::SiftUp(size_t index) {
  const QueueEntry item = near_heap_[index];
  while (index > 0) {
    const size_t parent = (index - 1) / 4;
    if (!Earlier(item, near_heap_[parent])) {
      break;
    }
    near_heap_[index] = near_heap_[parent];
    index = parent;
  }
  near_heap_[index] = item;
}

void Simulation::SiftDown(size_t index) {
  const size_t size = near_heap_.size();
  const QueueEntry item = near_heap_[index];
  for (;;) {
    const size_t first_child = 4 * index + 1;
    if (first_child >= size) {
      break;
    }
    size_t best = first_child;
    const size_t last_child = std::min(first_child + 4, size);
    for (size_t child = first_child + 1; child < last_child; ++child) {
      if (Earlier(near_heap_[child], near_heap_[best])) {
        best = child;
      }
    }
    if (!Earlier(near_heap_[best], item)) {
      break;
    }
    near_heap_[index] = near_heap_[best];
    index = best;
  }
  near_heap_[index] = item;
}

void Simulation::BuildHeap() {
  if (near_heap_.size() < 2) {
    return;
  }
  // Floyd: sift down every parent, deepest first. The last parent of a 4-ary
  // heap of n entries sits at (n - 2) / 4.
  for (size_t index = (near_heap_.size() - 2) / 4 + 1; index-- > 0;) {
    SiftDown(index);
  }
}

void Simulation::MigrateFar() {
  size_t batch = std::max(kMinMigrateBatch, far_.size() / kMigrateShrinkDivisor);
  if (batch >= far_.size()) {
    // Taking everything: the boundary moves just past the latest migrated
    // key, so follow-up schedules at already-seen times stay near (they must
    // interleave with this batch) while genuinely later ones land in far_.
    batch = far_.size();
    SimTime max_when = far_.front().when;
    for (const QueueEntry& entry : far_) {
      max_when = std::max(max_when, entry.when);
    }
    limit_when_ = max_when;
    limit_seq_ = std::numeric_limits<uint64_t>::max();
  } else {
    // Partition so far_[0..batch) are the batch earliest entries; far_[batch]
    // is then the earliest remaining and becomes the new boundary. Keys are
    // unique, so the selected set is deterministic.
    const auto nth = far_.begin() + static_cast<ptrdiff_t>(batch);
    std::nth_element(far_.begin(), nth, far_.end(), Earlier);
    limit_when_ = nth->when;
    limit_seq_ = nth->seq;
  }
  for (size_t i = 0; i < batch; ++i) {
    if (far_[i].record->cancelled) {
      // Tombstones die here instead of riding along to be skipped at pop.
      MONO_CHECK(tombstones_ > 0);
      --tombstones_;
      FreeRecord(far_[i].record);
    } else {
      near_sorted_.push_back(far_[i]);
    }
  }
  far_.erase(far_.begin(), far_.begin() + static_cast<ptrdiff_t>(batch));
  // Descending, so pops take the earliest entry from the back in O(1). One
  // sequential sort per batch replaces a cache-missing sift per event.
  std::sort(near_sorted_.begin(), near_sorted_.end(),
            [](const QueueEntry& a, const QueueEntry& b) { return Earlier(b, a); });
}

Simulation::QueueEntry* Simulation::FrontRaw() {
  for (;;) {
    if (!near_sorted_.empty()) {
      QueueEntry* front = &near_sorted_.back();
      if (!near_heap_.empty() && Earlier(near_heap_.front(), *front)) {
        front = &near_heap_.front();
      }
      return front;
    }
    if (!near_heap_.empty()) {
      return &near_heap_.front();
    }
    if (far_.empty()) {
      return nullptr;
    }
    MigrateFar();
  }
}

Simulation::QueueEntry* Simulation::FrontLive() {
  for (;;) {
    QueueEntry* front = FrontRaw();
    if (front == nullptr || !front->record->cancelled) {
      return front;
    }
    PopTop();
  }
}

Simulation::QueueEntry Simulation::PopTop() {
  QueueEntry top;
  if (!near_sorted_.empty() &&
      (near_heap_.empty() || Earlier(near_sorted_.back(), near_heap_.front()))) {
    top = near_sorted_.back();
    near_sorted_.pop_back();
  } else {
    top = near_heap_.front();
    near_heap_.front() = near_heap_.back();
    near_heap_.pop_back();
    if (!near_heap_.empty()) {
      SiftDown(0);
    }
  }
  if (top.record->cancelled) {
    MONO_CHECK(tombstones_ > 0);
    --tombstones_;
    FreeRecord(top.record);
    top.record = nullptr;
  }
  return top;
}

void Simulation::MaybeCompact() {
  if (tombstones_ == 0) {
    return;  // The common case on the schedule fast path: one load, no sums.
  }
  const size_t total = near_sorted_.size() + near_heap_.size() + far_.size();
  if (total < kCompactionMinQueueSize || tombstones_ * 2 <= total) {
    return;
  }
  const auto filter = [this](std::vector<QueueEntry>& entries) {
    size_t out = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].record->cancelled) {
        FreeRecord(entries[i].record);
      } else {
        entries[out++] = entries[i];
      }
    }
    entries.resize(out);
  };
  filter(near_sorted_);  // Stable, so the descending order survives.
  filter(near_heap_);
  filter(far_);
  tombstones_ = 0;
  BuildHeap();
}

bool Simulation::NoLiveEventAtNow() {
  QueueEntry* front = FrontLive();
  return front == nullptr || front->when > now_;
}

void Simulation::RunEpochTasks() {
  if (!epoch_run_buffer_.empty()) {
    // Re-entered (an epoch task drove this simulation again, e.g. via a nested
    // Run()): fall back to a one-off batch rather than clobbering the buffer.
    std::vector<InlineCallback> tasks = std::move(epoch_tasks_);
    epoch_tasks_.clear();
    for (InlineCallback& task : tasks) {
      task();
    }
    return;
  }
  // Swap the batch into the scratch buffer: callbacks may register follow-up
  // epoch work, which then belongs to the (possibly re-opened) epoch and runs
  // on the next flush. Both vectors keep their capacity across epochs.
  std::swap(epoch_tasks_, epoch_run_buffer_);
  for (InlineCallback& task : epoch_run_buffer_) {
    task();
  }
  epoch_run_buffer_.clear();
}

bool Simulation::Step() {
  for (;;) {
    // Epoch work registered outside any event (e.g. flows started before Run())
    // must flush before the clock can advance past the current time.
    if (!epoch_tasks_.empty() && NoLiveEventAtNow()) {
      RunEpochTasks();
      continue;
    }
    if (FrontLive() == nullptr) {
      return false;
    }
    QueueEntry entry = PopTop();
    EventRecord* record = entry.record;
    const char* tag = record->tag;
    if (SimAudit* audit = SimAudit::current()) {
      audit->ExpectLazy(entry.when >= last_fired_time_, now_, "simulation",
                        "clock-monotonic", [&] {
                          std::ostringstream detail;
                          detail << "event at t=" << entry.when << " fired after t="
                                 << last_fired_time_;
                          return detail.str();
                        });
    }
    now_ = entry.when;
    last_fired_time_ = entry.when;
    ++fired_;
    MixDigest(entry.when, entry.seq, tag);
    if (recorder_.enabled()) {
      recorder_.Record(entry.when, entry.seq, tag, digest_);
    }
    // Expose this simulation to the MONO_CHECK failure hook while its event
    // (and the epoch/audit work below) runs.
    Simulation* previous_stepping = g_stepping_sim;
    g_stepping_sim = this;
    // Move the callback out and recycle the record before invoking: captured
    // state dies when fn returns, outstanding handles to this event see a
    // bumped generation (fired), and the callback may immediately reuse the
    // record for a follow-up schedule.
    InlineCallback fn = std::move(record->fn);
    FreeRecord(record);
    fn();
    // Epoch boundary: once no live event shares the current timestamp, flush the
    // deferred epoch work (which may schedule same-time events, re-opening the
    // epoch) and then sweep the audits. Mid-epoch, both wait: batched components
    // are transiently stale until their end-of-epoch flush runs.
    while (!epoch_tasks_.empty() && NoLiveEventAtNow()) {
      RunEpochTasks();
    }
    if (NoLiveEventAtNow()) {
      RunAuditChecks(AuditPhase::kEventBoundary);
    }
    g_stepping_sim = previous_stepping;
    return true;
  }
}

void Simulation::Run() {
  while (Step()) {
  }
  RunAuditChecks(AuditPhase::kDrain);
}

void Simulation::RunUntil(SimTime deadline) {
  MONO_CHECK(deadline >= now_);
  for (;;) {
    // Epoch work pending at the current time must flush before the clock moves
    // (Step handles the post-fire case; this covers work registered outside any
    // event when the next live event lies beyond the deadline).
    if (!epoch_tasks_.empty() && NoLiveEventAtNow()) {
      RunEpochTasks();
      continue;
    }
    // Discard tombstones regardless of their virtual time — a remainder of
    // cancelled entries past the deadline must still count as drained — but never
    // fire a live event beyond the deadline.
    QueueEntry* front = FrontLive();
    if (front == nullptr || front->when > deadline) {
      break;
    }
    Step();
  }
  now_ = deadline;
  if (queue_size() == 0) {
    RunAuditChecks(AuditPhase::kDrain);
  }
}

void Simulation::RegisterAuditable(const Auditable* auditable) {
  MONO_CHECK(auditable != nullptr);
  auditables_.push_back(auditable);
}

void Simulation::UnregisterAuditable(const Auditable* auditable) {
  auditables_.erase(std::remove(auditables_.begin(), auditables_.end(), auditable),
                    auditables_.end());
}

void Simulation::RunAuditChecks(AuditPhase phase) {
  SimAudit* audit = SimAudit::current();
  if (audit == nullptr) {
    return;
  }
  if (audit != last_audit_) {
    // A different (nested or fresh) audit installed since the last sweep.
    last_audit_ = audit;
    audit_violations_seen_ = 0;
  }
  for (const Auditable* auditable : auditables_) {
    auditable->AuditInvariants(*audit, phase);
  }
  // A new violation — found by this sweep or reported inline since the last
  // one — dumps the flight recorder once per simulation: in report mode the
  // process keeps running and the schedule context would otherwise be lost by
  // the time the owner inspects the audit.
  if (audit->violations().size() > audit_violations_seen_ && !recorder_dumped_ &&
      recorder_.enabled()) {
    recorder_dumped_ = true;
    std::fprintf(stderr, "audit violation — dumping flight recorder:\n");
    DumpFlightRecorder(stderr);
  }
  audit_violations_seen_ = audit->violations().size();
}

}  // namespace monosim
