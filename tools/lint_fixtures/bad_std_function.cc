// Fixture for the std-function-hot-path rule: std::function in event-kernel
// or device code (src/simcore, src/cluster) must be flagged unless tagged as
// config-time.
#include <functional>

namespace monosim {

struct BadEventRecord {
  double when;
  std::function<void()> callback;  // VIOLATION: per-capture heap allocation.
};

// VIOLATION: std::function parameter on a schedule-path signature.
void ScheduleLike(double when, std::function<void()> fn);

// Config-time capacity model, evaluated at setup only.
// mono_lint: allow(std-function-hot-path) -- bound once at setup, never per event.
using CapacityModel = std::function<double(double)>;

// Mentioning std::function<void()> in a comment is fine; so is "std::function<int()>"
// inside a string literal:
inline const char* kDoc = "std::function<void()> is banned here";

}  // namespace monosim
