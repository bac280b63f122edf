// mono_lint fixture: escaping-capture. Lambdas handed to deferring APIs
// outlive the calling frame, so by-reference captures dangle and `this`
// captures are only safe in MONO_SIM_OWNED classes. Every line marked
// VIOLATION must be flagged; mono_lint_test.py asserts the exact count.
// Not compiled — the types are stand-ins for the simulator's components and
// MONO_SIM_OWNED for the marker in src/simcore/simulation.h.
#include <functional>
#include <vector>

namespace monosim {

class SlotSchedulerSim {
 public:
  void EnqueueRead(int phase, long bytes,
                   std::function<void(double, double)> done);
};

class DiskSim {
 public:
  void Read(long bytes, std::function<void()> done);
};

class MachineSim {
 public:
  // Pass-through accessor: the chain `machine_->disk(0).Read(...)` resolves
  // through it to DiskSim::Read.
  DiskSim& disk(int index) { return *disks_[index]; }

 private:
  std::vector<DiskSim*> disks_;
};

class TaskSim {
 public:
  void Run();

 private:
  void Done();
  SlotSchedulerSim* disk_;
  MachineSim* machine_;
  long bytes_ = 0;
};

void TaskSim::Run() {
  double local_total = 0.0;
  // VIOLATION: by-reference capture of a local escapes into the callback.
  disk_->EnqueueRead(0, bytes_, [&local_total](double service, double wait) {
    local_total += service + wait;
  });
  // VIOLATION: [&] default capture.
  disk_->EnqueueRead(0, bytes_, [&](double service, double) {
    local_total += service;
  });
  // VIOLATION: `this` capture, but TaskSim is not MONO_SIM_OWNED.
  ScheduleAfter(0.0, [this] { Done(); });
  // VIOLATION: init-capture that takes an address.
  disk_->EnqueueRead(0, bytes_, [total = &local_total](double s, double) {
    *total += s;
  });
  // VIOLATION: by-reference capture into a deferring API reached through an
  // accessor chain.
  machine_->disk(0).Read(bytes_, [&local_total] { local_total += 1.0; });
}

}  // namespace monosim
