#pragma once
// Machine-checked invariants for the demod chain (DESIGN.md §8).
//
// The pipeline is numerics all the way down — dB/Hz/sample-index
// quantities that silently degrade BER when an invariant is violated
// instead of failing loudly. These macros make the invariants explicit:
//
//   LSCATTER_EXPECT(cond, "msg")   precondition (caller broke the contract)
//   LSCATTER_ENSURE(cond, "msg")   postcondition (callee broke its promise)
//   LSCATTER_ASSERT(cond, "msg")   internal invariant
//
// Failure behaviour is configurable at runtime — abort (default) or throw
// lscatter::core::ContractViolation — via set_failure_mode() or the
// LSCATTER_CONTRACTS environment variable (abort|throw). The fuzz
// harnesses run in throw mode so a violated precondition on hostile
// input is a caught rejection, not a crash.
//
// Compile-time knob: -DLSCATTER_CHECKS=OFF defines
// LSCATTER_CHECKS_ENABLED=0 and compiles every check out entirely (the
// condition is not evaluated); release builds pay nothing. This header is
// dependency-free on purpose: every layer (dsp upward) may include it
// without creating a link edge.

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#ifndef LSCATTER_CHECKS_ENABLED
#define LSCATTER_CHECKS_ENABLED 1
#endif

namespace lscatter::core {

/// Thrown on contract failure in FailureMode::kThrow.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

namespace contracts {

enum class FailureMode {
  kAbort,  // print and std::abort() — the default; stacks stay intact
  kThrow,  // throw ContractViolation — used by tests and fuzz harnesses
};

namespace detail {
inline FailureMode& mode_storage() {
  static FailureMode mode = [] {
    const char* env = std::getenv("LSCATTER_CONTRACTS");
    return env != nullptr && std::string(env) == "throw"
               ? FailureMode::kThrow
               : FailureMode::kAbort;
  }();
  return mode;
}
}  // namespace detail

inline FailureMode failure_mode() { return detail::mode_storage(); }
inline void set_failure_mode(FailureMode m) { detail::mode_storage() = m; }

/// RAII override, so a test can opt into kThrow without leaking the mode
/// into later tests in the same process.
class ScopedFailureMode {
 public:
  explicit ScopedFailureMode(FailureMode m) : prev_(failure_mode()) {
    set_failure_mode(m);
  }
  ~ScopedFailureMode() { set_failure_mode(prev_); }
  ScopedFailureMode(const ScopedFailureMode&) = delete;
  ScopedFailureMode& operator=(const ScopedFailureMode&) = delete;

 private:
  FailureMode prev_;
};

[[noreturn]] inline void fail(const char* kind, const char* expr,
                              const char* file, int line, const char* msg) {
  std::string text = std::string("lscatter contract: ") + kind +
                     " failed: (" + expr + ") at " + file + ":" +
                     std::to_string(line);
  if (msg != nullptr && msg[0] != '\0') {
    text += " — ";
    text += msg;
  }
  if (failure_mode() == FailureMode::kThrow) throw ContractViolation(text);
  std::fputs(text.c_str(), stderr);
  std::fputc('\n', stderr);
  std::abort();
}

}  // namespace contracts
}  // namespace lscatter::core

#if LSCATTER_CHECKS_ENABLED

#define LSCATTER_CONTRACT_CHECK_(kind, cond, msg)                       \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::lscatter::core::contracts::fail(kind, #cond, __FILE__,          \
                                        __LINE__, msg);                 \
    }                                                                   \
  } while (false)

#define LSCATTER_EXPECT(cond, msg) \
  LSCATTER_CONTRACT_CHECK_("precondition", cond, msg)
#define LSCATTER_ENSURE(cond, msg) \
  LSCATTER_CONTRACT_CHECK_("postcondition", cond, msg)
#define LSCATTER_ASSERT(cond, msg) \
  LSCATTER_CONTRACT_CHECK_("invariant", cond, msg)

#else  // checks compiled out: conditions are not evaluated.

#define LSCATTER_EXPECT(cond, msg) do { } while (false)
#define LSCATTER_ENSURE(cond, msg) do { } while (false)
#define LSCATTER_ASSERT(cond, msg) do { } while (false)

#endif  // LSCATTER_CHECKS_ENABLED
