// Micro-benchmark for the parallel Monte-Carlo drop engine
// (core/sim_pool.hpp): wall-clock of the same fixed drop sweep at 1, 2,
// 4, and 8 workers, the serial-relative speedup at each count, and a
// bit-identical cross-check of every parallel run against the serial
// one. On exit the registry is written as JSON to `LSCATTER_OBS_JSON`
// or, by default, BENCH_micro_pool.json — gauge `core.pool.speedup_4t`
// is the headline number (>= 2x expected on >= 4 hardware threads; on
// fewer cores the sweep still must stay bit-identical, just not
// faster). Methodology: EXPERIMENTS.md "sim-pool speedup".
//
// Usage: bench_micro_pool [--drops=N] [--subframes=N]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/sim_pool.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"

int main(int argc, char** argv) {
  using namespace lscatter;
  benchutil::print_header("Micro: sim-pool serial vs parallel drop sweep",
                          "DESIGN.md §9 (not a paper figure)");
  const std::uint64_t seed = 4242;
  const std::size_t drops = benchutil::flag_count(argc, argv, "--drops", 8);
  const std::size_t subframes =
      benchutil::flag_count(argc, argv, "--subframes", 6);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("seed=%llu, %zu drops x %zu subframes, smart-home 5 MHz, "
              "%u hardware threads\n\n",
              static_cast<unsigned long long>(seed), drops, subframes, hw);

  core::ScenarioOptions opt;
  opt.bandwidth = lte::Bandwidth::kMHz5;
  opt.seed = seed;
  const core::LinkConfig cfg = core::make_scenario(core::Scene::kSmartHome, opt);

  benchutil::BenchReport report("bench_micro_pool", "BENCH_micro_pool.json");
  report.params()["seed"] = static_cast<std::uint64_t>(seed);
  report.params()["drops"] = static_cast<std::uint64_t>(drops);
  report.params()["subframes"] = static_cast<std::uint64_t>(subframes);
  report.params()["hardware_threads"] = static_cast<std::uint64_t>(hw);

  // Warm the FFT plan cache and page in the binary off the clock.
  (void)core::run_drops_parallel(cfg, 1, 1, 1);

  std::printf("%8s %12s %9s %10s\n", "threads", "wall (s)", "speedup",
              "identical");
  core::DropSweep serial;
  double serial_s = 0.0;
  bool all_identical = true;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    // Best of two runs: drops the one-off cost of spawning the team on a
    // loaded machine without burning bench time on long repetitions.
    double best_s = 0.0;
    core::DropSweep sweep;
    for (int rep = 0; rep < 2; ++rep) {
      obs::Stopwatch clock;
      clock.start();
      sweep = core::run_drops_parallel(cfg, drops, subframes, threads);
      clock.stop();
      if (rep == 0 || clock.elapsed_s() < best_s) best_s = clock.elapsed_s();
    }
    if (threads == 1) {
      serial = sweep;
      serial_s = best_s;
    }
    const bool identical = sweep.total == serial.total &&
                           sweep.throughputs_bps == serial.throughputs_bps;
    all_identical = all_identical && identical;
    const double speedup = best_s > 0.0 ? serial_s / best_s : 0.0;
    std::printf("%8zu %12.3f %8.2fx %10s\n", threads, best_s, speedup,
                identical ? "yes" : "NO");

    obs::json::Object& row = report.add_row();
    row["threads"] = static_cast<std::uint64_t>(threads);
    row["wall_seconds"] = best_s;
    row["speedup_vs_serial"] = speedup;
    row["identical_to_serial"] = identical;
    if (threads == 1) {
      LSCATTER_OBS_GAUGE_SET("core.pool.bench.serial_seconds", best_s);
    } else if (threads == 2) {
      LSCATTER_OBS_GAUGE_SET("core.pool.speedup_2t", speedup);
    } else if (threads == 4) {
      LSCATTER_OBS_GAUGE_SET("core.pool.speedup_4t", speedup);
    } else {
      LSCATTER_OBS_GAUGE_SET("core.pool.speedup_8t", speedup);
    }
  }

  std::printf("\nserial vs parallel bit-identical : %s\n",
              all_identical ? "yes" : "NO");
  if (!all_identical) {
    std::fprintf(stderr, "bench_micro_pool: determinism violation\n");
    return 1;
  }
  return 0;
}
