#pragma once
// Compile-time thread-safety capabilities (DESIGN.md §13).
//
// Clang Thread Safety Analysis (the Capability/GUARDED_BY model from
// Hutchins et al., enabled by -Wthread-safety) checks lock discipline:
// the LSCATTER_* macros below expand to the __attribute__((...))
// spellings under clang and to nothing elsewhere, so annotations cost
// nothing on gcc and become build errors on the clang
// `-DLSCATTER_THREAD_SAFETY=ON` lane (-Werror=thread-safety-analysis).
// Which mutex guards which field, and which functions require which
// locks, is stated in the types and checked on every clang build.
// Lock *order* is ThreadSanitizer's job: its deadlock detector reports
// an AB/BA inversion on these wrappers like on any pthread mutex, so the
// wrappers themselves only forward to the std primitives.
//
// Migration is mechanical: std::mutex -> lscatter::Mutex,
// std::shared_mutex -> lscatter::SharedMutex,
// std::lock_guard<std::mutex> -> lscatter::LockGuard,
// std::shared_lock -> lscatter::SharedLockGuard,
// std::unique_lock + std::condition_variable ->
// lscatter::UniqueLock + lscatter::CondVar. The lscatter-lint
// `raw-mutex` rule bans the std spellings in src/ outside this header
// so the whole tree stays on the checked wrappers.
//
// Like core/contracts.hpp this header is deliberately header-only and
// dependency-free so every layer (dsp upward) may include it without
// creating a link edge.

// The std primitives below are the implementation substrate of the
// wrappers; lscatter-lint's raw-mutex rule exempts this file (and only
// this file) from the std::mutex/std::lock_guard ban.
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "core/contracts.hpp"

// ---- Clang Thread Safety Analysis attribute macros ----------------------
// Spellings follow the canonical mutex.h from the Clang TSA docs; the
// LSCATTER_ prefix keeps them greppable and avoids colliding with other
// libraries' THREAD_ANNOTATION macros.

#if defined(__clang__) && !defined(SWIG)
#define LSCATTER_TSA_(x) __attribute__((x))
#else
#define LSCATTER_TSA_(x)  // no-op: gcc/msvc do not implement the analysis
#endif

/// A type whose instances can be held: `class LSCATTER_CAPABILITY("mutex")
/// Mutex { ... };`.
#define LSCATTER_CAPABILITY(x) LSCATTER_TSA_(capability(x))

/// RAII types that acquire in the constructor and release in the
/// destructor (LockGuard & friends below).
#define LSCATTER_SCOPED_CAPABILITY LSCATTER_TSA_(scoped_lockable)

/// Data member readable/writable only while the given capability is held.
#define LSCATTER_GUARDED_BY(x) LSCATTER_TSA_(guarded_by(x))

/// Function may only be called while the caller holds the capability
/// exclusively.
#define LSCATTER_REQUIRES(...) \
  LSCATTER_TSA_(requires_capability(__VA_ARGS__))

/// Function acquires/releases the capability (on `this` when no
/// argument is given — the wrapper-method form).
#define LSCATTER_ACQUIRE(...) \
  LSCATTER_TSA_(acquire_capability(__VA_ARGS__))
#define LSCATTER_ACQUIRE_SHARED(...) \
  LSCATTER_TSA_(acquire_shared_capability(__VA_ARGS__))
#define LSCATTER_RELEASE(...) \
  LSCATTER_TSA_(release_capability(__VA_ARGS__))
#define LSCATTER_RELEASE_SHARED(...) \
  LSCATTER_TSA_(release_shared_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (it acquires it
/// itself — calling it while held is a self-deadlock, caught at compile
/// time).
#define LSCATTER_EXCLUDES(...) LSCATTER_TSA_(locks_excluded(__VA_ARGS__))

/// Escape hatch. Every use must carry a comment justifying why the
/// analysis cannot model the function (the acceptance bar for this
/// repo: condition-variable wait is the only known-legitimate case).
#define LSCATTER_NO_THREAD_SAFETY_ANALYSIS \
  LSCATTER_TSA_(no_thread_safety_analysis)

namespace lscatter {

// ---- annotated drop-in lock wrappers -------------------------------------

/// std::mutex with a TSA capability.
class LSCATTER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() noexcept = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LSCATTER_ACQUIRE() { m_.lock(); }
  void unlock() LSCATTER_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// std::shared_mutex with a TSA capability.
class LSCATTER_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() noexcept = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() LSCATTER_ACQUIRE() { m_.lock(); }
  void unlock() LSCATTER_RELEASE() { m_.unlock(); }
  void lock_shared() LSCATTER_ACQUIRE_SHARED() { m_.lock_shared(); }
  void unlock_shared() LSCATTER_RELEASE_SHARED() { m_.unlock_shared(); }

 private:
  std::shared_mutex m_;
};

/// Drop-in for std::lock_guard<std::mutex>: exclusive for the scope.
class LSCATTER_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) LSCATTER_ACQUIRE(m) : mutex_(m) {
    mutex_.lock();
  }
  ~LockGuard() LSCATTER_RELEASE() { mutex_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mutex_;
};

/// Drop-in for std::shared_lock<std::shared_mutex>: shared (reader) for
/// the scope.
class LSCATTER_SCOPED_CAPABILITY SharedLockGuard {
 public:
  explicit SharedLockGuard(SharedMutex& m) LSCATTER_ACQUIRE_SHARED(m)
      : mutex_(m) {
    mutex_.lock_shared();
  }
  ~SharedLockGuard() LSCATTER_RELEASE() { mutex_.unlock_shared(); }

  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Exclusive scoped lock on a SharedMutex (the write side of a
/// double-checked read-mostly cache: dsp/fft.cpp's plan cache).
class LSCATTER_SCOPED_CAPABILITY ExclusiveLockGuard {
 public:
  explicit ExclusiveLockGuard(SharedMutex& m) LSCATTER_ACQUIRE(m)
      : mutex_(m) {
    mutex_.lock();
  }
  ~ExclusiveLockGuard() LSCATTER_RELEASE() { mutex_.unlock(); }

  ExclusiveLockGuard(const ExclusiveLockGuard&) = delete;
  ExclusiveLockGuard& operator=(const ExclusiveLockGuard&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Drop-in for std::unique_lock<std::mutex>: relockable scope, the shape
/// condition-variable waits need. Always constructed locked.
class LSCATTER_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) LSCATTER_ACQUIRE(m) : mutex_(m) {
    mutex_.lock();
    owned_ = true;
  }
  ~UniqueLock() LSCATTER_RELEASE() {
    if (owned_) mutex_.unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() LSCATTER_ACQUIRE() {
    mutex_.lock();
    owned_ = true;
  }
  void unlock() LSCATTER_RELEASE() {
    mutex_.unlock();
    owned_ = false;
  }

 private:
  Mutex& mutex_;
  bool owned_ = false;
};

/// Condition variable paired with lscatter::Mutex/UniqueLock. Built on
/// condition_variable_any so it waits on the wrapper UniqueLock
/// directly. Express wait predicates as named functions annotated
/// LSCATTER_REQUIRES(mutex) and loop at the call site:
///
///   while (!slot_ready(state)) state.result_ready.wait(lock);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`, blocks, and re-acquires before
  /// returning. NO_THREAD_SAFETY_ANALYSIS is justified here and only
  /// here: the analysis cannot model a function that releases and
  /// re-acquires a caller's scoped capability mid-body — the caller's
  /// view ("held before, held after") stays consistent, which is what
  /// the analysis checks at the call site.
  void wait(UniqueLock& lock) LSCATTER_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(lock);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

/// Thread affinity for single-owner objects, whose state has no lock and
/// must only ever be touched by one thread (core::StreamingReceiver,
/// core::AmbientReconstructor). check() pins the first calling thread; a
/// call from any other thread later is a contract violation carrying
/// `what`. Compiled out with the other checks (-DLSCATTER_CHECKS=OFF).
class SingleOwner {
 public:
  void check(const char* what) {
#if LSCATTER_CHECKS_ENABLED
    const std::thread::id self = std::this_thread::get_id();
    if (owner_ == std::thread::id{}) owner_ = self;
    LSCATTER_EXPECT(owner_ == self, what);
#else
    (void)what;
#endif
  }

 private:
#if LSCATTER_CHECKS_ENABLED
  std::thread::id owner_{};
#endif
};

}  // namespace lscatter
