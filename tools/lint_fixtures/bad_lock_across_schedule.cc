// mono_lint fixture: lock-across-schedule. Engine code must not call a
// deferring or blocking API while holding a MutexLock: the callee may run a
// completion callback that takes the same mutex. Every line marked VIOLATION
// must be flagged; mono_lint_test.py asserts the exact count.
// Not compiled — the types are stand-ins for src/common/mutex.h.
#include <functional>

namespace monotasks {

class Monotask;

class ResourceScheduler {
 public:
  void Submit(Monotask* task);
};

class Router {
 public:
  void OnComplete(Monotask* task);

 private:
  monoutil::Mutex mutex_;
  std::function<void(Monotask*)> submit_;
  ResourceScheduler* cpu_;
};

void Router::OnComplete(Monotask* task) {
  monoutil::MutexLock lock(mutex_);
  // VIOLATION: deferring scheduler call with the lock held.
  cpu_->Submit(task);
  // VIOLATION: routing functor (blocks into a scheduler) with the lock held.
  submit_(task);
  // VIOLATION: kernel scheduling with the lock held.
  ScheduleAfter(0.0, [task] { (void)task; });
}

}  // namespace monotasks
