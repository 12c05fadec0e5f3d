#pragma once
// Scoped tracing: RAII spans that time a region, maintain a per-thread
// nesting stack, feed a per-name latency histogram, and append finished
// span events to a bounded ring buffer the exporter can turn into a tree.
//
// Use through the macros in obs.hpp (LSCATTER_OBS_SPAN / _TIMER) so the
// whole mechanism compiles to nothing when LSCATTER_OBS_ENABLED=0.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/thread_safety.hpp"
#include "obs/registry.hpp"

namespace lscatter::obs {

/// Monotonic nanoseconds since process-local epoch.
std::uint64_t now_ns();

/// One finished span. `parent_seq` is the per-thread sequence number of
/// the enclosing span (kNoParent at top level); `seq` numbers spans per
/// thread in *start* order so exporters can rebuild the nesting.
/// `flow_id` (0 = none) is a cross-thread correlation key: spans sharing
/// a non-zero flow id describe one logical operation hopping between
/// threads (a drop's enqueue → worker execute → in-order delivery), and
/// trace_export links them with Chrome flow events.
struct SpanEvent {
  static constexpr std::uint64_t kNoParent = ~0ull;

  const char* name = nullptr;  // must point at a string literal
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint32_t depth = 0;
  std::uint32_t thread_id = 0;  // dense per-process thread ordinal
  std::uint64_t seq = 0;
  std::uint64_t parent_seq = kNoParent;
  std::uint64_t flow_id = 0;  // 0 = not part of any flow
};

/// Bounded global sink. When full, the oldest events are overwritten and
/// `dropped()` counts them — tracing must never grow without bound in a
/// long-running receiver.
class SpanSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 8192;

  static SpanSink& instance();

  void record(const SpanEvent& ev) LSCATTER_EXCLUDES(mutex_);

  /// Events currently retained, in record order (oldest first).
  std::vector<SpanEvent> snapshot() const LSCATTER_EXCLUDES(mutex_);

  std::uint64_t total_recorded() const LSCATTER_EXCLUDES(mutex_);
  std::uint64_t dropped() const LSCATTER_EXCLUDES(mutex_);

  void clear() LSCATTER_EXCLUDES(mutex_);

  /// Resize (drops current contents). Capacity 0 disables retention but
  /// keeps counting.
  void set_capacity(std::size_t capacity) LSCATTER_EXCLUDES(mutex_);

 private:
  explicit SpanSink(std::size_t capacity) : ring_(capacity) {}

  mutable lscatter::Mutex mutex_;
  std::vector<SpanEvent> ring_ LSCATTER_GUARDED_BY(mutex_);
  std::size_t head_ LSCATTER_GUARDED_BY(mutex_) = 0;   // next write slot
  std::size_t size_ LSCATTER_GUARDED_BY(mutex_) = 0;   // valid entries
  std::uint64_t total_ LSCATTER_GUARDED_BY(mutex_) = 0;
};

/// RAII span: times the enclosed scope, records a SpanEvent and (when a
/// histogram is supplied — the macros cache one per call site) a latency
/// sample, so per-stage timing survives ring overflow in long runs.
/// `name` must be a string literal (stored by pointer).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, Histogram* latency = nullptr,
                      std::uint64_t flow_id = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Current nesting depth of the calling thread (0 = no open span).
  static std::uint32_t current_depth();

 private:
  const char* name_;
  Histogram* latency_;
  std::uint64_t start_ns_;
  std::uint64_t seq_;
  std::uint64_t parent_seq_;
  std::uint32_t depth_;
  std::uint32_t thread_id_;
  std::uint64_t flow_id_;
};

/// RAII timer: histogram only (no ring-buffer event) — the cheaper choice
/// for call sites that fire thousands of times per packet. Accumulates
/// into the Histogram passed at construction; pair with the registry
/// lookup caching in the macros.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(histogram), start_ns_(now_ns()) {}
  ~ScopedTimer() {
    histogram_.record(static_cast<double>(now_ns() - start_ns_) * 1e-9);
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  std::uint64_t start_ns_;
};

/// Manual stopwatch for accumulating split timings across non-contiguous
/// regions (e.g. "all preamble-search work inside one packet").
class Stopwatch {
 public:
  void start() { t0_ = now_ns(); }
  void stop() { elapsed_ns_ += now_ns() - t0_; }
  double elapsed_s() const {
    return static_cast<double>(elapsed_ns_) * 1e-9;
  }
  std::uint64_t elapsed_ns() const { return elapsed_ns_; }

 private:
  std::uint64_t t0_ = 0;
  std::uint64_t elapsed_ns_ = 0;
};

}  // namespace lscatter::obs
