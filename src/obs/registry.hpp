#pragma once
// Process-wide metric registry: named counters, gauges, and log-bucketed
// histograms (naming scheme `subsystem.stage.metric`; see DESIGN.md §7).
//
// Hot-path cost model: the instrumentation macros in obs.hpp resolve a
// metric's name to a stable pointer once (function-local static), so every
// subsequent hit is a single relaxed atomic RMW — safe from any thread,
// and cheap enough for per-symbol call sites. Registration itself takes a
// mutex but only runs on first use of each call site.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_safety.hpp"
#include "dsp/stats.hpp"
#include "obs/sharded.hpp"

namespace lscatter::obs {

class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins double, plus a monotonic high-water-mark update.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }

  /// Raise to `v` if it exceeds the current value (high-water mark).
  void update_max(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram for positive values spanning many decades
/// (typical use: stage latencies in seconds). `kBucketsPerDecade` buckets
/// per power of ten between 1e-10 and 1e11; values at or below zero land
/// in a dedicated underflow bucket. Records are a handful of relaxed
/// atomics; summaries (quantiles) are computed lazily by the exporter.
///
/// The header atomics and the bucket array are cacheline-aligned (and
/// the class alignment rounds the allocation to a 64-byte multiple), so
/// a hammered histogram never false-shares with whatever metric the
/// allocator placed next to it.
class alignas(64) Histogram {
 public:
  static constexpr int kBucketsPerDecade = 8;
  static constexpr int kMinDecade = -10;
  static constexpr int kMaxDecade = 11;
  static constexpr std::size_t kNumBuckets = static_cast<std::size_t>(
      (kMaxDecade - kMinDecade) * kBucketsPerDecade);

  void record(double v);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  // +inf when empty
  double max() const;  // -inf when empty
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  std::uint64_t underflow() const {
    return underflow_.load(std::memory_order_relaxed);
  }

  /// Bucket `i` covers (lower_edge(i), upper_edge(i)].
  static double lower_edge(std::size_t i);
  static double upper_edge(std::size_t i);
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Approximate quantile (p in [0, 1]) from the bucket counts with
  /// geometric interpolation; 0 when empty. Exact for min/max endpoints.
  double quantile(double p) const;

  /// Same estimate through a caller-owned scratch buffer, so repeated
  /// sampling (obs/snapshot.hpp ticks every N drops for a whole replayed
  /// day) stays allocation-free once the scratch has grown to the
  /// non-empty-bucket count (<= kNumBuckets + 1).
  double quantile(double p, std::vector<dsp::BucketSpan>& scratch) const;

  void reset();

 private:
  static std::size_t bucket_index(double v);

  // Hot atomics on their own cache line, bucket array on the next:
  // every record() touches the header block plus one bucket, and
  // keeping both 64-byte aligned stops the legacy unsharded path from
  // false-sharing with neighboring heap allocations.
  alignas(64) std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_minmax_{false};
  std::atomic<std::uint64_t> underflow_{0};
  alignas(64) std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
};

/// Name -> metric map. Metric objects live for the process lifetime and
/// their addresses are stable, so call sites may cache references.
/// Every public method takes the registry mutex itself, so all are
/// annotated LSCATTER_EXCLUDES(mutex_): calling one while already
/// holding the registry lock is a self-deadlock, rejected at compile
/// time on the clang thread-safety lane. The returned metric references
/// outlive the lock on purpose — metric objects are never destroyed and
/// are internally atomic, so caching them is the intended hot-path use.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name) LSCATTER_EXCLUDES(mutex_);
  Gauge& gauge(const std::string& name) LSCATTER_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name) LSCATTER_EXCLUDES(mutex_);

  /// Thread-sharded counter (obs/sharded.hpp) for call sites hit
  /// concurrently by many workers. Reported under the same namespace as
  /// plain counters, pre-merged; a name should be sharded or plain, not
  /// both (if both exist, reports show their sum).
  ShardedCounter& sharded_counter(const std::string& name)
      LSCATTER_EXCLUDES(mutex_);

  /// Snapshot of registered names, sorted (for deterministic reports).
  /// counter_names() is the union of plain and sharded counters.
  std::vector<std::string> counter_names() const LSCATTER_EXCLUDES(mutex_);
  std::vector<std::string> gauge_names() const LSCATTER_EXCLUDES(mutex_);
  std::vector<std::string> histogram_names() const
      LSCATTER_EXCLUDES(mutex_);

  /// Lookup without creating; nullptr when absent. find_counter sees
  /// only plain counters — exporters read counter_value(), which merges
  /// the sharded cells.
  const Counter* find_counter(const std::string& name) const
      LSCATTER_EXCLUDES(mutex_);
  const Gauge* find_gauge(const std::string& name) const
      LSCATTER_EXCLUDES(mutex_);
  const Histogram* find_histogram(const std::string& name) const
      LSCATTER_EXCLUDES(mutex_);
  const ShardedCounter* find_sharded_counter(const std::string& name) const
      LSCATTER_EXCLUDES(mutex_);

  /// Report-side counter read: plain value plus the merged sharded sum
  /// under the same name (0 when neither exists).
  std::uint64_t counter_value(const std::string& name) const
      LSCATTER_EXCLUDES(mutex_);

  /// Zero every metric (tests / multi-phase benches). Does not
  /// unregister: cached call-site references stay valid.
  void reset_all() LSCATTER_EXCLUDES(mutex_);

 private:
  Registry() = default;

  mutable lscatter::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      LSCATTER_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      LSCATTER_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      LSCATTER_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<ShardedCounter>> sharded_counters_
      LSCATTER_GUARDED_BY(mutex_);
};

}  // namespace lscatter::obs
