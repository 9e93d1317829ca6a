// Clang thread-safety annotations plus annotated lock primitives.
//
// The macros expand to clang `__attribute__` thread-safety annotations when
// compiling with clang and to nothing elsewhere, so GCC builds are
// unaffected. With `-DBALSA_THREAD_SAFETY=ON` (clang only) the build runs
// under `-Wthread-safety -Werror`: every access to a GUARDED_BY field
// outside its mutex, every REQUIRES violation, and every unbalanced
// acquire/release is a compile error. This turns the repo's locking
// discipline — documented until now only in comments ("same-table writers
// caller-serialized", "Rebase runs the callback UNLOCKED") — into
// machine-checked invariants.
//
// Usage: hold state behind a `balsa::Mutex`, scope critical sections with
// `balsa::MutexLock`, and annotate:
//
//   Mutex mu_;
//   std::deque<Item> queue_ GUARDED_BY(mu_);
//   void DrainLocked() REQUIRES(mu_);   // caller must hold mu_
//   void Push(Item item) EXCLUDES(mu_); // caller must NOT hold mu_
//
// Condition waits go through `balsa::CondVar`, which pairs with Mutex
// directly (it wraps std::condition_variable_any; Mutex is BasicLockable).
// Predicate waits are written as explicit loops —
//
//   while (!done_) cv_.Wait(mu_);
//
// — rather than the std predicate-lambda form, because the analysis checks
// lambda bodies as separate functions that do not know the lock is held.
//
// Intentionally unguarded shared state (relaxed atomics such as striped
// counters, published epochs, or admission floors read off-lock) carries no
// GUARDED_BY; each such field documents its memory-order contract in a
// comment at the declaration instead.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define BALSA_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define BALSA_THREAD_ANNOTATION__(x)  // no-op outside clang
#endif

/// Marks a class as a capability (lockable). The string names the
/// capability kind in diagnostics ("mutex").
#define CAPABILITY(x) BALSA_THREAD_ANNOTATION__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases
/// a capability.
#define SCOPED_CAPABILITY BALSA_THREAD_ANNOTATION__(scoped_lockable)

/// Field may only be read or written while holding the given mutex.
#define GUARDED_BY(x) BALSA_THREAD_ANNOTATION__(guarded_by(x))

/// Pointer field: the *pointee* may only be accessed while holding the
/// given mutex (the pointer itself is unguarded).
#define PT_GUARDED_BY(x) BALSA_THREAD_ANNOTATION__(pt_guarded_by(x))

/// The caller must hold the listed mutexes when calling this function.
#define REQUIRES(...) \
  BALSA_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// The function acquires the listed mutexes and does not release them.
#define ACQUIRE(...) BALSA_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// The function releases the listed mutexes (which the caller must hold).
#define RELEASE(...) BALSA_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// The function acquires the mutexes iff it returns the given value.
#define TRY_ACQUIRE(...) \
  BALSA_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// The caller must NOT hold the listed mutexes (deadlock prevention: the
/// function acquires them itself, or calls something that does).
#define EXCLUDES(...) BALSA_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the given mutex.
#define RETURN_CAPABILITY(x) BALSA_THREAD_ANNOTATION__(lock_returned(x))

/// Asserts (at analysis level) that the capability is held; used on
/// runtime-checked paths the analysis cannot follow.
#define ASSERT_CAPABILITY(x) BALSA_THREAD_ANNOTATION__(assert_capability(x))

/// Escape hatch: disables analysis for one function. Every use must carry
/// a comment explaining why the access pattern is safe.
#define NO_THREAD_SAFETY_ANALYSIS \
  BALSA_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace balsa {

/// std::mutex with capability annotations. Satisfies BasicLockable /
/// Lockable, so it also works with std generic code (and CondVar below).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock scope over Mutex (the annotated analogue of
/// std::unique_lock): acquires on construction, releases on destruction,
/// with explicit Unlock()/Lock() for the drop-the-lock-do-work-relock
/// pattern (ChangeLog::Rebase, the health monitor's background loop).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }
  ~MutexLock() RELEASE() {
    if (held_) mu_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Drops the lock mid-scope (to run work that must not hold it).
  void Unlock() RELEASE() {
    mu_.unlock();
    held_ = false;
  }

  /// Re-acquires after Unlock().
  void Lock() ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable paired with Mutex. Wraps condition_variable_any:
/// Mutex is BasicLockable, and the wait internals (which unlock/relock the
/// mutex) live in a system header, where clang suppresses analysis — so
/// callers' REQUIRES annotations stay accurate across a Wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and re-acquires before returning.
  /// Callers re-check their predicate in a loop (spurious wakeups).
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  /// Wait with a timeout; returns std::cv_status::timeout on expiry.
  template <class Rep, class Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& dur)
      REQUIRES(mu) {
    return cv_.wait_for(mu, dur);
  }

  /// Wait until a deadline; returns std::cv_status::timeout on expiry.
  template <class Clock, class Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace balsa
