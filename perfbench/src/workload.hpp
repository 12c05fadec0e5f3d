#pragma once
// Shared types of the benchmark's workloads (rationale: perfbench/README.md).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/link_simulator.hpp"
#include "lte/cell_config.hpp"
#include "tracer.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2020;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `attempted` counts the packets the tag sent
/// (UE workloads) or simulated (montecarlo) in the timed phase; `failed`
/// counts false or corrupt deliveries and broken receiver invariants, each
/// of which also clears `correct`.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a correctness violation (printed at once, counted in failed).
  void violation(const std::string& what);
};

/// Heap allocations (global operator new calls) since process start.
/// Only main.cpp includes obs/alloc_probe.hpp: it defines operator new.
std::uint64_t heap_allocations();

/// Peak resident set of this process [MB].
double peak_rss_mb();

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The timed phase of an untraced run is split into rounds of equal
/// length, and the run reports its fastest quarter of rounds (by
/// throughput), pooled: realtime_x is their IQ-seconds over their wall
/// time, latency quantiles run over all of their samples, and setup_s is
/// the median of the set-ups timed just before or within them. Each round
/// covers hundreds of frames, so no periodic work is skipped. Stretches of
/// host contention (shared caches and memory, seconds long) only ever slow
/// rounds down; they move a whole-run mean or median with the share of the
/// run they cover, the fastest quarter only when they cover most of it. A
/// change in the program moves every round, these included.
constexpr double kRoundSeconds = 1.0;
constexpr double kKeptRoundShare = 0.25;

inline std::size_t round_count(double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds /
                                                           kRoundSeconds));
}

struct Round {
  double iq_s = 0.0;    // seconds of IQ decoded (or simulated)
  double wall_s = 0.0;  // timed wall time
  std::vector<double> latency_ms;
  std::vector<double> setup_s;

  double realtime_x() const { return iq_s / wall_s; }
};

struct Summary {
  double realtime_x = 0.0;  // kept rounds: IQ-seconds / wall time
  double p50_ms = 0.0;      // kept rounds' latency samples, pooled
  double p95_ms = 0.0;
  double setup_s = 0.0;     // median set-up of the kept rounds
  std::size_t kept = 0;     // rounds kept
  std::size_t samples = 0;  // latency samples in the kept rounds
  std::size_t setups = 0;   // set-up samples in the kept rounds
  double iq_s = 0.0;        // all rounds
  double wall_s = 0.0;      // all rounds
};

inline Summary summarize(const std::vector<Round>& rounds) {
  Summary s;
  std::vector<const Round*> fastest;
  for (const Round& r : rounds) {
    fastest.push_back(&r);
    s.iq_s += r.iq_s;
    s.wall_s += r.wall_s;
  }
  std::sort(fastest.begin(), fastest.end(),
            [](const Round* a, const Round* b) {
              return a->realtime_x() > b->realtime_x();
            });
  s.kept = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             kKeptRoundShare * static_cast<double>(rounds.size()) + 0.5));
  fastest.resize(std::min(s.kept, fastest.size()));
  double iq_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> pooled;
  std::vector<double> setups;
  for (const Round* r : fastest) {
    iq_s += r->iq_s;
    wall_s += r->wall_s;
    pooled.insert(pooled.end(), r->latency_ms.begin(), r->latency_ms.end());
    setups.insert(setups.end(), r->setup_s.begin(), r->setup_s.end());
  }
  s.realtime_x = iq_s / wall_s;
  s.p50_ms = quantile(pooled, 0.50);
  s.p95_ms = quantile(pooled, 0.95);
  s.samples = pooled.size();
  s.setup_s = quantile(setups, 0.50);
  s.setups = setups.size();
  return s;
}

/// One line per metric with every round's value, in run order.
inline void print_rounds(const std::vector<Round>& rounds) {
  std::printf("  rounds realtime_x:");
  for (const Round& r : rounds) std::printf(" %.4g", r.realtime_x());
  for (const double q : {0.50, 0.95}) {
    std::printf("\n  rounds latency_p%.0f_ms:", 100.0 * q);
    for (const Round& r : rounds) {
      std::printf(" %.4g", quantile(r.latency_ms, q));
    }
  }
  std::printf("\n");
}

/// The summary's timings with their statistic and sample counts.
inline void print_summary(const Summary& s, std::size_t rounds,
                          const char* samples, const char* setups) {
  std::printf("  %-16s %10.4f x    (fastest %zu of %zu rounds)\n",
              "realtime_x", s.realtime_x, s.kept, rounds);
  std::printf("  %-16s %10.4f ms   (fastest %zu of %zu rounds, n=%zu %s)\n",
              "latency_p50_ms", s.p50_ms, s.kept, rounds, s.samples, samples);
  std::printf("  %-16s %10.4f ms   (fastest %zu of %zu rounds, n=%zu %s)\n",
              "latency_p95_ms", s.p95_ms, s.kept, rounds, s.samples, samples);
  std::printf("  %-16s %10.4f s    (fastest %zu of %zu rounds, median of "
              "n=%zu %s)\n",
              "setup_s", s.setup_s, s.kept, rounds, s.setups, setups);
}

/// The two UE workloads differ in bandwidth and in how the backscatter
/// band is chunked into feed() calls.
struct UeSpec {
  lscatter::lte::Bandwidth bandwidth = lscatter::lte::Bandwidth::kMHz20;
  /// SDR-style chunks of seed-drawn length (log-uniform over
  /// [min_chunk, max_chunk] samples) instead of one feed per subframe.
  bool ragged = false;
  std::size_t min_chunk = 0;
  std::size_t max_chunk = 0;
  /// Subframes of IQ generated (untimed) per block of the timed loop.
  std::size_t block_subframes = 10;
};

/// Run one workload. `tracer` is enabled only for --trace 1; the caller
/// writes its spans out.
Result run_ue_workload(const Options& options, const UeSpec& spec,
                       Tracer& tracer);
Result run_montecarlo_workload(const Options& options, Tracer& tracer);

/// A traced run times every layer, including those its workload does not
/// drive, so that each per-layer metric is a measurement on every
/// workload. These two run such layers on the workload's own scene,
/// outside its timed loop, and set their metrics in `result`.
///
/// measure_scene_layers: the sweep's per-drop calls, one at a time on
/// `config` -- eNodeB, tag pattern and add_awgn over 40 subframes,
/// demodulate_packet (genie ambient) plus the offset-search and CRC probes
/// on each packet, and LinkSimulator::run on 2 drops.
void measure_scene_layers(const lscatter::core::LinkConfig& config,
                          Tracer& tracer, Result& result);
/// measure_ue_layers: the UE chain on `link` -- cold starts (cell search)
/// and one steady-state block of blind rebuilds and one-subframe feeds.
void measure_ue_layers(const lscatter::core::LinkConfig& link,
                       std::uint64_t seed, Tracer& tracer, Result& result);

}  // namespace perfbench
