// Annotated mutex primitives for the threaded execution engine.
//
// Thin wrappers over std::mutex / std::condition_variable whose entry points
// carry the Clang thread-safety attributes (thread_annotations.h), so that
// GUARDED_BY / REQUIRES contracts on engine state are actually enforced by
// -Wthread-safety: libstdc++'s own mutex types are unannotated and invisible
// to the analysis. The wrappers add no overhead — every method is an inline
// forward to the standard primitive.
#ifndef MONOTASKS_SRC_COMMON_MUTEX_H_
#define MONOTASKS_SRC_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "src/common/thread_annotations.h"

namespace monoutil {

class CondVar;

// An annotated std::mutex. Prefer MutexLock over manual Lock()/Unlock().
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII guard: acquires the mutex for the enclosing scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable usable with Mutex. Wait() atomically releases the mutex
// while blocked and reacquires it before returning, exactly like
// std::condition_variable — callers hold the mutex across the call, which is
// what REQUIRES documents. Use an explicit `while (!condition) cv.Wait(mu);`
// loop rather than a predicate overload: the loop body is visible to the
// thread-safety analysis, a predicate lambda is not.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait, then
    // release the unique_lock without unlocking: ownership stays with the
    // caller's MutexLock, whose scope the annotations track.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace monoutil

#endif  // MONOTASKS_SRC_COMMON_MUTEX_H_
