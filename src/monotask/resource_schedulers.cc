#include "src/monotask/resource_schedulers.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/tracer.h"

namespace monosim {

void QueueLengthTrace::Record(SimTime now, int length) {
  if (on_) {
    trace_.Record(now, static_cast<double>(length));
  }
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    if (!series_.empty()) {
      tracer->Counter(process_, series_, now.seconds(), static_cast<double>(length));
    }
  }
}

SlotSchedulerSim::SlotSchedulerSim(Simulation* sim, MachineSim* machine)
    : sim_(sim), machine_(machine), slots_(machine->num_cores()), queue_(1) {
  MONO_CHECK(sim_ != nullptr);
}

SlotSchedulerSim::SlotSchedulerSim(Simulation* sim, DiskSim* disk, int slots, bool fifo)
    : sim_(sim), disk_(disk), slots_(slots), fifo_(fifo),
      queue_(monoutil::kNumDiskPhases) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK(disk_ != nullptr);
  MONO_CHECK(slots >= 1);
}

void SlotSchedulerSim::Enqueue(double cpu_seconds, MonotaskDone done) {
  MONO_CHECK(machine_ != nullptr);
  MONO_CHECK(cpu_seconds >= 0);
  Push(0, Item{Op::kCompute, cpu_seconds, monoutil::Bytes(), sim_->now(),
               std::move(done)});
}

void SlotSchedulerSim::EnqueueRead(DiskPhase phase, monoutil::Bytes bytes,
                                   MonotaskDone done) {
  MONO_CHECK(phase == DiskPhase::kRead || phase == DiskPhase::kServe);
  Push(static_cast<int>(phase),
       Item{Op::kRead, 0.0, bytes, sim_->now(), std::move(done)});
}

void SlotSchedulerSim::EnqueueWrite(monoutil::Bytes bytes, MonotaskDone done) {
  Push(static_cast<int>(DiskPhase::kWrite),
       Item{Op::kWrite, 0.0, bytes, sim_->now(), std::move(done)});
}

void SlotSchedulerSim::Push(int phase, Item item) {
  MONO_CHECK(item.done != nullptr);
  queue_.Push(fifo_ ? 0 : phase, std::move(item));
  Dispatch();
  RecordQueue();
}

void SlotSchedulerSim::Dispatch() {
  while (running_ < slots_ && !queue_.empty()) {
    Item item = queue_.Pop();
    RecordQueue();
    ++running_;
    const SimTime dispatched = sim_->now();
    const SimTime wait = dispatched - item.enqueued;
    auto on_done = [this, dispatched, wait, done = std::move(item.done)] {
      --running_;
      const SimTime service = sim_->now() - dispatched;
      // Admit the next monotask before reporting completion so the device never
      // idles waiting for downstream bookkeeping.
      Dispatch();
      done(service, wait);
    };
    switch (item.op) {
      case Op::kCompute:
        machine_->RunCompute(item.cpu_seconds, std::move(on_done));
        break;
      case Op::kRead:
        disk_->Read(item.bytes, std::move(on_done));
        break;
      case Op::kWrite:
        disk_->Write(item.bytes, std::move(on_done));
        break;
    }
  }
}

NetworkSchedulerSim::NetworkSchedulerSim(Simulation* sim, int multitask_limit)
    : sim_(sim), limit_(multitask_limit) {
  MONO_CHECK(sim_ != nullptr);
  MONO_CHECK(multitask_limit >= 1);
}

void NetworkSchedulerSim::Acquire(std::function<void(SimTime)> granted) {
  MONO_CHECK(granted != nullptr);
  if (active_ < limit_) {
    ++active_;
    granted(SimTime());
    return;
  }
  waiting_.push_back(Waiter{sim_->now(), std::move(granted)});
  RecordQueue();
}

void NetworkSchedulerSim::Release() {
  MONO_CHECK(active_ > 0);
  if (!waiting_.empty()) {
    Waiter waiter = std::move(waiting_.front());
    waiting_.pop_front();
    RecordQueue();
    waiter.granted(sim_->now() - waiter.enqueued);  // Slot transfers to the next waiter.
    return;
  }
  --active_;
}

}  // namespace monosim
