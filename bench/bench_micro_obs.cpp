// Micro-benchmark for the observability hot path: per-increment cost of
// a shared-atomic obs::Counter vs a thread-sharded obs::ShardedCounter
// (obs/sharded.hpp) at 1, 2, 4, and 8 threads. The shared counter makes
// every worker RMW one cache line, so its per-increment cost grows with
// the thread count; the sharded cells stay uncontended, so theirs must
// not. Headline gauges: `obs.bench.shared_ns_8t`, `obs.bench.sharded_ns_8t`
// and `obs.bench.sharded_speedup_8t` (the ≥5x acceptance bar lives in
// the latter; EXPERIMENTS.md "obs contention" explains how to read the
// numbers on busy or small machines). Both counters are self-checked:
// the merged value must equal threads x iters, or the bench fails.
//
// Usage: bench_micro_obs [--iters=N]

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace {

// One timed pass: `threads` workers each hammer `hit` iters times.
// Returns wall nanoseconds per increment (per thread — contention shows
// up as this number growing with the thread count, since the total work
// per thread is fixed).
template <typename Hit>
double timed_pass(std::size_t threads, std::size_t iters, Hit hit) {
  lscatter::obs::Stopwatch clock;
  std::vector<std::thread> team;
  team.reserve(threads);
  clock.start();
  for (std::size_t t = 0; t < threads; ++t) {
    team.emplace_back([iters, &hit] {
      for (std::size_t i = 0; i < iters; ++i) hit();
    });
  }
  for (auto& worker : team) worker.join();
  clock.stop();
  return static_cast<double>(clock.elapsed_ns()) /
         static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lscatter;
  benchutil::print_header(
      "Micro: obs counter contention, shared atomic vs thread-sharded",
      "DESIGN.md §12 (not a paper figure)");
  const std::size_t iters = benchutil::flag_count(argc, argv, "--iters", 2'000'000);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("%zu increments per thread per pass, best of 3, "
              "%u hardware threads\n\n",
              iters, hw);

  benchutil::BenchReport report("bench_micro_obs", "BENCH_micro_obs.json");
  report.params()["iters"] = static_cast<std::uint64_t>(iters);
  report.params()["hardware_threads"] = static_cast<std::uint64_t>(hw);

  obs::Counter& shared =
      obs::Registry::instance().counter("obs.bench.shared_hits");
  obs::ShardedCounter& sharded =
      obs::Registry::instance().sharded_counter("obs.bench.sharded_hits");

  std::printf("%8s %14s %14s %9s\n", "threads", "shared ns/op",
              "sharded ns/op", "ratio");
  bool totals_ok = true;
  double speedup_8t = 0.0;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    double shared_ns = 0.0;
    double sharded_ns = 0.0;
    // Best of three passes per variant: keeps a background-noise spike
    // on a loaded CI machine from reading as contention.
    for (int rep = 0; rep < 3; ++rep) {
      shared.reset();
      const double a =
          timed_pass(threads, iters, [&shared] { shared.add(1); });
      totals_ok = totals_ok &&
                  shared.value() == static_cast<std::uint64_t>(threads) *
                                        static_cast<std::uint64_t>(iters);
      sharded.reset();
      const double b = timed_pass(threads, iters, [&sharded] {
        // Mirrors LSCATTER_OBS_SHARDED_COUNTER_ADD: the thread's cell is
        // resolved once, every hit is one uncontended relaxed RMW.
        thread_local std::atomic<std::uint64_t>* const cell =
            &sharded.cell();
        cell->fetch_add(1, std::memory_order_relaxed);
      });
      totals_ok = totals_ok &&
                  sharded.value() == static_cast<std::uint64_t>(threads) *
                                         static_cast<std::uint64_t>(iters);
      if (rep == 0 || a < shared_ns) shared_ns = a;
      if (rep == 0 || b < sharded_ns) sharded_ns = b;
    }
    const double ratio = sharded_ns > 0.0 ? shared_ns / sharded_ns : 0.0;
    std::printf("%8zu %14.2f %14.2f %8.2fx\n", threads, shared_ns,
                sharded_ns, ratio);

    obs::json::Object& row = report.add_row();
    row["threads"] = static_cast<std::uint64_t>(threads);
    row["shared_ns_per_inc"] = shared_ns;
    row["sharded_ns_per_inc"] = sharded_ns;
    row["shared_over_sharded"] = ratio;
    if (threads == 8) {
      speedup_8t = ratio;
      LSCATTER_OBS_GAUGE_SET("obs.bench.shared_ns_8t", shared_ns);
      LSCATTER_OBS_GAUGE_SET("obs.bench.sharded_ns_8t", sharded_ns);
      LSCATTER_OBS_GAUGE_SET("obs.bench.sharded_speedup_8t", ratio);
    } else if (threads == 1) {
      LSCATTER_OBS_GAUGE_SET("obs.bench.shared_ns_1t", shared_ns);
      LSCATTER_OBS_GAUGE_SET("obs.bench.sharded_ns_1t", sharded_ns);
    }
  }
  // The timing counters end reset-and-refilled from the last pass; zero
  // them so the report's counter section stays pass-count independent.
  shared.reset();
  sharded.reset();

  std::printf("\nmerged totals correct            : %s\n",
              totals_ok ? "yes" : "NO");
  std::printf("sharded speedup at 8 threads     : %.2fx\n", speedup_8t);
  if (!totals_ok) {
    std::fprintf(stderr, "bench_micro_obs: merge mismatch — a sharded "
                         "counter lost or duplicated increments\n");
    return 1;
  }
  return 0;
}
