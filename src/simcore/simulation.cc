#include "src/simcore/simulation.h"

#include <algorithm>
#include <cstring>
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
  queue_.push_back(QueueEntry{when, next_seq_++, record});
  std::push_heap(queue_.begin(), queue_.end(), FiresLater);
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

Simulation::QueueEntry* Simulation::FrontLive() {
  while (!queue_.empty() && queue_.front().record->cancelled) {
    PopTop();
  }
  return queue_.empty() ? nullptr : &queue_.front();
}

Simulation::QueueEntry Simulation::PopTop() {
  std::pop_heap(queue_.begin(), queue_.end(), FiresLater);
  QueueEntry top = queue_.back();
  queue_.pop_back();
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
  if (queue_.size() < kCompactionMinQueueSize || tombstones_ * 2 <= queue_.size()) {
    return;
  }
  std::erase_if(queue_, [this](const QueueEntry& entry) {
    if (!entry.record->cancelled) {
      return false;
    }
    FreeRecord(entry.record);
    return true;
  });
  tombstones_ = 0;
  std::make_heap(queue_.begin(), queue_.end(), FiresLater);
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
