// mono_lint fixture: lock-across-schedule, clean twin. The canonical shape:
// collect ready work under the lock, close the scope, submit after release.
// Not compiled — the types are stand-ins for src/common/mutex.h.
#include <functional>
#include <vector>

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
  std::vector<Monotask*> ready_;
};

void Router::OnComplete(Monotask* task) {
  std::vector<Monotask*> ready;
  {
    monoutil::MutexLock lock(mutex_);
    ready_.push_back(task);
    ready.swap(ready_);
  }
  // OK: the lock scope closed above.
  for (Monotask* t : ready) {
    cpu_->Submit(t);
    submit_(t);
  }
}

}  // namespace monotasks
