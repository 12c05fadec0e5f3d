#pragma once
// Compile-time thread-safety capabilities + runtime lock-order
// validation (DESIGN.md §13).
//
// Two enforcement layers share this header:
//
//  1. Clang Thread Safety Analysis (the Capability/GUARDED_BY model from
//     Hutchins et al., enabled by -Wthread-safety). The LSCATTER_*
//     macros below expand to the __attribute__((...)) spellings under
//     clang and to nothing elsewhere, so annotations cost nothing on gcc
//     and become build errors on the clang `-DLSCATTER_THREAD_SAFETY=ON`
//     lane (-Werror=thread-safety-analysis). Which mutex guards which
//     field, and which functions require which locks, is stated in the
//     types and checked on every build instead of sampled by TSan.
//
//  2. A runtime lock-order validator inside the lscatter::Mutex /
//     SharedMutex wrappers: each thread keeps a held-lock stack, and a
//     process-global acquired-before graph records every nested
//     acquisition. The first acquisition that would close a cycle
//     (classic AB/BA deadlock order inversion), and any same-thread
//     re-acquisition (self-deadlock on a non-recursive mutex), fails a
//     contract immediately — even when the schedule that would actually
//     deadlock never happens in the test run. Static analysis cannot see
//     runtime-conditional acquisition orders; this can. The validator is
//     active whenever contracts are (default build) and compiles out
//     entirely under -DLSCATTER_CHECKS=OFF; failures route through
//     core/contracts.hpp, so LSCATTER_CONTRACTS=throw turns an inversion
//     into a catchable lscatter::core::ContractViolation for tests.
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
#include <cstddef>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

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

/// Pointer member whose *pointee* is guarded by the given capability.
#define LSCATTER_PT_GUARDED_BY(x) LSCATTER_TSA_(pt_guarded_by(x))

/// Function may only be called while the caller holds the capability
/// exclusively (shared variant: while holding at least shared).
#define LSCATTER_REQUIRES(...) \
  LSCATTER_TSA_(requires_capability(__VA_ARGS__))
#define LSCATTER_REQUIRES_SHARED(...) \
  LSCATTER_TSA_(requires_shared_capability(__VA_ARGS__))

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
#define LSCATTER_RELEASE_GENERIC(...) \
  LSCATTER_TSA_(release_generic_capability(__VA_ARGS__))
#define LSCATTER_TRY_ACQUIRE(...) \
  LSCATTER_TSA_(try_acquire_capability(__VA_ARGS__))
#define LSCATTER_TRY_ACQUIRE_SHARED(...) \
  LSCATTER_TSA_(try_acquire_shared_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (it acquires it
/// itself — calling it while held is a self-deadlock, caught at compile
/// time).
#define LSCATTER_EXCLUDES(...) LSCATTER_TSA_(locks_excluded(__VA_ARGS__))

/// Declared lock-rank edges, checked under -Wthread-safety-beta.
#define LSCATTER_ACQUIRED_BEFORE(...) \
  LSCATTER_TSA_(acquired_before(__VA_ARGS__))
#define LSCATTER_ACQUIRED_AFTER(...) \
  LSCATTER_TSA_(acquired_after(__VA_ARGS__))

/// Runtime assertion that the capability is held (for call graphs the
/// analysis cannot follow).
#define LSCATTER_ASSERT_CAPABILITY(x) LSCATTER_TSA_(assert_capability(x))
#define LSCATTER_ASSERT_SHARED_CAPABILITY(x) \
  LSCATTER_TSA_(assert_shared_capability(x))

/// Function returns a reference to the given capability.
#define LSCATTER_RETURN_CAPABILITY(x) LSCATTER_TSA_(lock_returned(x))

/// Escape hatch. Every use must carry a comment justifying why the
/// analysis cannot model the function (the acceptance bar for this
/// repo: condition-variable wait is the only known-legitimate case).
#define LSCATTER_NO_THREAD_SAFETY_ANALYSIS \
  LSCATTER_TSA_(no_thread_safety_analysis)

namespace lscatter {

// ---- runtime lock-order validator ---------------------------------------

namespace lock_order {

#if LSCATTER_CHECKS_ENABLED

inline constexpr bool kEnabled = true;

/// One entry of a thread's held-lock stack.
struct HeldLock {
  const void* mutex = nullptr;
  const char* name = nullptr;  // optional diagnostic label (or null)
  bool shared = false;
};

namespace detail {

inline const char* display_name(const char* name) {
  return name != nullptr ? name : "<unnamed>";
}

/// Process-global acquired-before graph. Edge A -> B means "B was
/// acquired while A was held" somewhere in the process's history; a new
/// nested acquisition that can already reach a currently-held lock
/// through the graph closes a cycle — the order inversion a deadlock
/// needs. Protected by a raw std::mutex on purpose: the validator must
/// not instrument (and recurse into) itself.
class Graph {
 public:
  static Graph& instance() {
    static Graph* const graph = new Graph();  // never destroyed: mutexes
    // may be released from static destructors of client code.
    return *graph;
  }

  /// Called with the acquiring thread's held stack just before the
  /// blocking acquisition of `next`. Fails a contract on inversion.
  void before_acquire(const HeldLock* held, std::size_t n_held,
                      const void* next, const char* next_name) {
    std::string inversion;
    {
      std::lock_guard<std::mutex> lk(mu_);
      names_[next] = next_name;
      for (std::size_t i = 0; i < n_held; ++i) {
        names_[held[i].mutex] = held[i].name;
      }
      for (std::size_t i = 0; i < n_held; ++i) {
        if (held[i].mutex == next) continue;  // re-acquire: caught earlier
        if (reaches_locked(next, held[i].mutex)) {
          inversion = "acquiring " + describe_locked(next) +
                      " while holding " + describe_locked(held[i].mutex) +
                      ", but the opposite order was recorded earlier "
                      "(acquired-before cycle) — potential deadlock";
          break;
        }
      }
      if (inversion.empty()) {
        for (std::size_t i = 0; i < n_held; ++i) {
          adj_[held[i].mutex].insert(next);
        }
      }
    }
    if (!inversion.empty()) {
      core::contracts::fail("lock-order", "acquired-before graph is acyclic",
                            __FILE__, __LINE__, inversion.c_str());
    }
  }

  /// Drop every edge touching `m` — called from the mutex destructor so
  /// a new mutex constructed at a recycled address (per-sweep PoolState
  /// on the stack) never inherits stale ordering history.
  void forget(const void* m) {
    std::lock_guard<std::mutex> lk(mu_);
    adj_.erase(m);
    names_.erase(m);
    for (auto& [from, to] : adj_) to.erase(m);
  }

  /// Directed edges currently recorded (test introspection).
  std::size_t edge_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t n = 0;
    for (const auto& [from, to] : adj_) n += to.size();
    return n;
  }

 private:
  Graph() = default;

  bool reaches_locked(const void* from, const void* to) const {
    if (from == to) return true;
    std::vector<const void*> stack{from};
    std::set<const void*> visited;
    while (!stack.empty()) {
      const void* cur = stack.back();
      stack.pop_back();
      if (!visited.insert(cur).second) continue;
      const auto it = adj_.find(cur);
      if (it == adj_.end()) continue;
      for (const void* next : it->second) {
        if (next == to) return true;
        stack.push_back(next);
      }
    }
    return false;
  }

  std::string describe_locked(const void* m) const {
    const auto it = names_.find(m);
    const char* name =
        it != names_.end() ? display_name(it->second) : "<unnamed>";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%p", m);
    return std::string("mutex '") + name + "' (" + buf + ")";
  }

  mutable std::mutex mu_;  // raw by design: see class comment
  std::map<const void*, std::set<const void*>> adj_;
  std::map<const void*, const char*> names_;
};

struct ThreadState {
  static constexpr std::size_t kMaxHeld = 32;
  HeldLock held[kMaxHeld];
  std::size_t depth = 0;
};

inline ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

}  // namespace detail

/// Pre-acquisition check: self-deadlock (same-thread re-acquisition of a
/// non-recursive lock, shared or exclusive) and order inversion against
/// the global acquired-before graph. Runs BEFORE the real lock call so
/// the bug reports instead of wedging. `blocking` is false for try_*
/// acquisitions, which cannot deadlock and therefore record no edges.
inline void check_acquire(const void* m, const char* name, bool blocking) {
  detail::ThreadState& st = detail::thread_state();
  for (std::size_t i = 0; i < st.depth; ++i) {
    if (st.held[i].mutex == m) {
      const std::string msg =
          std::string("same-thread re-acquisition of mutex '") +
          detail::display_name(name) +
          "' — self-deadlock on a non-recursive lock";
      core::contracts::fail("lock-order", "no re-entrant locking", __FILE__,
                            __LINE__, msg.c_str());
      return;  // kLog mode: keep going
    }
  }
  if (blocking && st.depth > 0) {
    detail::Graph::instance().before_acquire(st.held, st.depth, m, name);
  }
}

/// Post-acquisition bookkeeping: push onto the thread's held stack.
inline void acquired(const void* m, const char* name, bool shared) {
  detail::ThreadState& st = detail::thread_state();
  LSCATTER_ASSERT(st.depth < detail::ThreadState::kMaxHeld,
                  "lock nesting exceeds the validator's held-stack bound");
  if (st.depth < detail::ThreadState::kMaxHeld) {
    st.held[st.depth++] = {m, name, shared};
  }
}

/// Release bookkeeping: drop `m` from the held stack (out-of-order
/// release of hand-over-hand patterns is legal, so search, don't pop).
inline void released(const void* m) {
  detail::ThreadState& st = detail::thread_state();
  for (std::size_t i = st.depth; i-- > 0;) {
    if (st.held[i].mutex == m) {
      for (std::size_t j = i; j + 1 < st.depth; ++j) {
        st.held[j] = st.held[j + 1];
      }
      --st.depth;
      return;
    }
  }
  LSCATTER_ASSERT(false, "released a lock the validator never saw acquired");
}

inline void destroyed(const void* m) { detail::Graph::instance().forget(m); }

/// Locks the calling thread currently holds (test introspection).
inline std::size_t held_count() { return detail::thread_state().depth; }

/// Directed acquired-before edges recorded so far (test introspection —
/// and the anti-neutering probe: tests assert this grows when locks
/// nest, so a build that silently compiled the validator out fails).
inline std::size_t edge_count() {
  return detail::Graph::instance().edge_count();
}

#else  // !LSCATTER_CHECKS_ENABLED — everything compiles to nothing.

inline constexpr bool kEnabled = false;

inline void check_acquire(const void*, const char*, bool) {}
inline void acquired(const void*, const char*, bool) {}
inline void released(const void*) {}
inline void destroyed(const void*) {}
inline std::size_t held_count() { return 0; }
inline std::size_t edge_count() { return 0; }

#endif  // LSCATTER_CHECKS_ENABLED

}  // namespace lock_order

// ---- annotated drop-in lock wrappers -------------------------------------

/// std::mutex with a TSA capability and lock-order validation. Pass a
/// string-literal name ("obs.registry") for readable inversion reports;
/// the name is stored by pointer.
class LSCATTER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() noexcept = default;
  explicit Mutex(const char* name) noexcept : name_(name) {}
  ~Mutex() { lock_order::destroyed(this); }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LSCATTER_ACQUIRE() {
    lock_order::check_acquire(this, name_, /*blocking=*/true);
    m_.lock();
    lock_order::acquired(this, name_, /*shared=*/false);
  }

  bool try_lock() LSCATTER_TRY_ACQUIRE(true) {
    lock_order::check_acquire(this, name_, /*blocking=*/false);
    const bool ok = m_.try_lock();
    if (ok) lock_order::acquired(this, name_, /*shared=*/false);
    return ok;
  }

  void unlock() LSCATTER_RELEASE() {
    lock_order::released(this);
    m_.unlock();
  }

  const char* name() const { return name_; }

 private:
  std::mutex m_;
  const char* name_ = nullptr;
};

/// std::shared_mutex with a TSA capability and lock-order validation.
/// Shared acquisitions participate in the acquired-before graph too: a
/// reader-held lock still deadlocks against a writer in a cycle.
class LSCATTER_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() noexcept = default;
  explicit SharedMutex(const char* name) noexcept : name_(name) {}
  ~SharedMutex() { lock_order::destroyed(this); }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() LSCATTER_ACQUIRE() {
    lock_order::check_acquire(this, name_, /*blocking=*/true);
    m_.lock();
    lock_order::acquired(this, name_, /*shared=*/false);
  }

  bool try_lock() LSCATTER_TRY_ACQUIRE(true) {
    lock_order::check_acquire(this, name_, /*blocking=*/false);
    const bool ok = m_.try_lock();
    if (ok) lock_order::acquired(this, name_, /*shared=*/false);
    return ok;
  }

  void unlock() LSCATTER_RELEASE() {
    lock_order::released(this);
    m_.unlock();
  }

  void lock_shared() LSCATTER_ACQUIRE_SHARED() {
    lock_order::check_acquire(this, name_, /*blocking=*/true);
    m_.lock_shared();
    lock_order::acquired(this, name_, /*shared=*/true);
  }

  bool try_lock_shared() LSCATTER_TRY_ACQUIRE_SHARED(true) {
    lock_order::check_acquire(this, name_, /*blocking=*/false);
    const bool ok = m_.try_lock_shared();
    if (ok) lock_order::acquired(this, name_, /*shared=*/true);
    return ok;
  }

  void unlock_shared() LSCATTER_RELEASE_SHARED() {
    lock_order::released(this);
    m_.unlock_shared();
  }

  const char* name() const { return name_; }

 private:
  std::shared_mutex m_;
  const char* name_ = nullptr;
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

  bool owns_lock() const { return owned_; }

 private:
  Mutex& mutex_;
  bool owned_ = false;
};

/// Condition variable paired with lscatter::Mutex/UniqueLock. Built on
/// condition_variable_any so the wait path re-enters the wrapper's
/// lock()/unlock() — the lock-order validator's held stack stays exact
/// across waits. Express wait predicates as named functions annotated
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
