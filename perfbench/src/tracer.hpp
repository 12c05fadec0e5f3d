#pragma once
// Outside-in span recorder for the traced run.
//
// The benchmark wraps each public call into a layer (CellSearcher::search,
// reconstruct_blind, StreamingReceiver::feed, ...) in a span. Per span
// name it aggregates the call count, the busy time and the heap
// allocations made inside the call; the first `max_events` spans are kept
// in memory and written once, at exit, as Chrome trace-event JSON that
// chrome://tracing and ui.perfetto.dev open. A disabled tracer records
// nothing, so the untraced timed loops pay one branch per call.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    double seconds = 0.0;
    std::uint64_t allocs = 0;
  };

  explicit Tracer(bool enabled, std::size_t max_events = 100000)
      : enabled_(enabled), max_events_(max_events), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Record one span on thread track `tid` (0 = the benchmark's thread).
  void record(const char* name, Clock::time_point t0, Clock::time_point t1,
              std::uint64_t allocs = 0, int tid = 0) {
    if (!enabled_) return;
    Totals& t = slot(name);
    ++t.count;
    t.seconds += seconds_between(t0, t1);
    t.allocs += allocs;
    if (events_.size() < max_events_) {
      events_.push_back({name, t0, t1, tid});
    } else {
      ++dropped_;
    }
  }

  /// Aggregate for `name` (all zero when never recorded).
  Totals totals(const char* name) const {
    for (const auto& [n, t] : totals_) {
      if (n == name || std::strcmp(n, name) == 0) return t;
    }
    return {};
  }

  /// Mean span duration for `name` [us]; 0 when never recorded.
  double mean_us(const char* name) const {
    const Totals t = totals(name);
    return t.count == 0 ? 0.0
                        : 1e6 * t.seconds / static_cast<double>(t.count);
  }

  /// Write the kept spans as Chrome trace-event JSON. False on I/O error.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
                    "\"dropped_spans\":%llu},\"traceEvents\":[\n",
                 static_cast<unsigned long long>(dropped_));
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}\n",
                   i == 0 ? "" : ",", e.name, e.tid,
                   1e6 * seconds_between(origin_, e.t0),
                   1e6 * seconds_between(e.t0, e.t1));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    const char* name;
    Clock::time_point t0;
    Clock::time_point t1;
    int tid;
  };

  // Span names are string literals, so pointer identity is the fast path
  // and a handful of names keeps the linear scan short.
  Totals& slot(const char* name) {
    for (auto& [n, t] : totals_) {
      if (n == name || std::strcmp(n, name) == 0) return t;
    }
    totals_.emplace_back(name, Totals{});
    return totals_.back().second;
  }

  bool enabled_;
  std::size_t max_events_;
  Clock::time_point origin_;
  std::vector<std::pair<const char*, Totals>> totals_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
