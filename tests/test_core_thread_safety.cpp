// Lock-order canary (DESIGN.md §13). The lscatter:: lock wrappers only
// forward to the std primitives; lock order is checked by
// ThreadSanitizer's deadlock detector. This test proves TSan still sees
// through the wrappers: a death-test child locks two lscatter::Mutexes
// AB then BA and must exit with TSan's report status (66) and a
// lock-order-inversion report. Outside a TSan build it skips.

#include <cstdlib>

#include <gtest/gtest.h>

#include "core/thread_safety.hpp"

#if defined(__SANITIZE_THREAD__)
#define LSCATTER_TEST_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LSCATTER_TEST_UNDER_TSAN 1
#endif
#endif
#ifndef LSCATTER_TEST_UNDER_TSAN
#define LSCATTER_TEST_UNDER_TSAN 0
#endif

namespace {

#if LSCATTER_TEST_UNDER_TSAN
// Function-static, so each mutex keeps one address for the child's life:
// TSan keys a mutex by its address.
[[noreturn]] void lock_ab_then_ba() {
  static lscatter::Mutex a;
  static lscatter::Mutex b;
  {
    lscatter::LockGuard la(a);
    lscatter::LockGuard lb(b);
  }
  {
    lscatter::LockGuard lb(b);
    lscatter::LockGuard la(a);
  }
  std::exit(0);  // TSan turns a clean exit into 66 once it has reported
}
#endif

TEST(LockOrderCanary, TsanReportsAnAbBaInversionOnLscatterMutex) {
#if LSCATTER_TEST_UNDER_TSAN
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(lock_ab_then_ba(), ::testing::ExitedWithCode(66),
              "lock-order-inversion");
#else
  GTEST_SKIP() << "lock order is checked by TSan: build with "
                  "-DLSCATTER_SANITIZE=thread";
#endif
}

}  // namespace
