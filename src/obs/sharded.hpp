#pragma once
// Thread-sharded counter cells for hot paths shared by many workers.
//
// A plain obs::Counter is a single atomic: every worker RMWs the same
// cache line, so at 8 threads the increment itself costs more than the
// work being measured (bench/bench_micro_obs.cpp quantifies this). A
// ShardedCounter spreads the count across cacheline-aligned per-thread
// cells: each thread claims its cell once (dense thread ordinal, shared
// with the span layer so trace tids and shard indices agree) and every
// subsequent increment is an uncontended relaxed RMW on a line no other
// thread touches. Reads merge the cells — reporting pays the sum, the
// hot path pays nothing.
//
// Register through `Registry::sharded_counter(name)` (or the
// LSCATTER_OBS_SHARDED_COUNTER_* macros in obs.hpp, which additionally
// cache the calling thread's cell pointer in a thread_local): the name
// appears in reports exactly like a plain counter, already merged, so
// lscatter-obs trend/regress and registry consumers never see the sharding.
// A name should be either sharded or plain, not both; if both exist the
// report shows their sum.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace lscatter::obs {

/// Dense per-process ordinal of the calling thread (0, 1, 2, ... in
/// first-use order). The same ordinal the span layer stamps into
/// SpanEvent::thread_id, so a worker's shard index and its trace track
/// refer to the same thread. Defined in span.cpp.
std::uint32_t thread_ordinal();

/// Monotonic uint64 counter sharded across cacheline-aligned cells.
/// Threads map onto cells by ordinal; with more than kShards live
/// threads cells are shared (still correct — the cells are atomics —
/// just contended again).
class ShardedCounter {
 public:
  static constexpr std::size_t kShards = 64;  // power of two (mask below)

  /// The calling thread's cell. Hot call sites cache the returned
  /// reference in a thread_local (see LSCATTER_OBS_SHARDED_COUNTER_ADD)
  /// so steady state is one TLS load plus one uncontended relaxed RMW.
  std::atomic<std::uint64_t>& cell() {
    return shards_[thread_ordinal() & (kShards - 1)].value;
  }

  void add(std::uint64_t delta) {
    cell().fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// Merged value: sum over all cells. Relaxed per-cell loads — exact
  /// once writers are quiescent, momentarily stale (never torn) while
  /// they are not, same contract as Counter::value().
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void reset() {
    for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  Shard shards_[kShards] = {};
};

}  // namespace lscatter::obs
