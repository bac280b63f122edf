// mono_lint fixture: escaping-capture, clean twin. Value captures, `this` in
// a MONO_SIM_OWNED class, and an audited allow tag all stay quiet.
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
  DiskSim& disk(int index) { return *disks_[index]; }

 private:
  std::vector<DiskSim*> disks_;
};

class OwnedTaskSim {
 public:
  // The executor keeps this object alive until its last callback has fired.
  MONO_SIM_OWNED;
  void Run();

 private:
  void Done();
  SlotSchedulerSim* disk_;
  MachineSim* machine_;
  double total_ = 0.0;
};

void OwnedTaskSim::Run() {
  // OK: value-captured pointer to long-lived state.
  double* total = &total_;
  disk_->EnqueueRead(0, 1, [total](double s, double w) { *total += s + w; });
  // OK: the same value capture through an accessor chain.
  machine_->disk(0).Read(1, [total] { *total += 1.0; });
  // OK: `this` in a MONO_SIM_OWNED class.
  ScheduleAfter(0.0, [this] { Done(); });
  // OK: audited by-reference capture, tagged with the lifetime argument.
  double acc = 0.0;
  // mono_lint: allow(escaping-capture) -- the frame blocks below until the callback fires.
  disk_->EnqueueRead(0, 1, [&acc](double s, double) { acc += s; });
}

}  // namespace monosim
