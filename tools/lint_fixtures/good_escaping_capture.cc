// mono_lint fixture: escaping-capture, clean twin. Value captures, `this` in
// a MONO_SIM_OWNED class, and an audited allow tag all stay quiet.
// Not compiled — the macros and types are stand-ins for src/common/domain.h.
#include <functional>

namespace monosim {

class SlotSchedulerSim {
 public:
  MONO_DOMAIN("machine");
  void EnqueueRead(int phase, long bytes,
                   std::function<void(double, double)> done);
};

class OwnedTaskSim {
 public:
  MONO_DOMAIN("machine");
  // The executor keeps this object alive until its last callback has fired.
  MONO_SIM_OWNED;
  void Run();

 private:
  void Done();
  SlotSchedulerSim* disk_;
  double total_ = 0.0;
};

void OwnedTaskSim::Run() {
  // OK: value-captured pointer to long-lived state.
  double* total = &total_;
  disk_->EnqueueRead(0, 1, [total](double s, double w) { *total += s + w; });
  // OK: `this` in a MONO_SIM_OWNED class.
  ScheduleAfter(0.0, [this] { Done(); });
  // OK: audited by-reference capture, tagged with the lifetime argument.
  double acc = 0.0;
  // mono_lint: allow(escaping-capture) -- the frame blocks below until the callback fires.
  disk_->EnqueueRead(0, 1, [&acc](double s, double) { acc += s; });
}

}  // namespace monosim
