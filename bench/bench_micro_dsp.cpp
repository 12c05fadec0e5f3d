// Micro-benchmarks (google-benchmark): the DSP substrate's hot loops —
// FFTs at every LTE size, OFDM modulation, PSS correlation, AWGN — to
// show the simulator's building blocks run at practical speeds. On exit the
// observability registry is written as JSON to `LSCATTER_OBS_JSON` or,
// by default, BENCH_micro_dsp.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "channel/awgn.hpp"
#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "dsp/simd.hpp"
#include "lte/enodeb.hpp"
#include "lte/ofdm.hpp"
#include "lte/qam.hpp"
#include "lte/resource_grid.hpp"
#include "lte/ue_sync.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"

namespace {

using namespace lscatter;

void BM_FftForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::FftPlan plan(n);
  dsp::Rng rng(1);
  dsp::cvec x(n);
  for (auto& v : x) v = rng.complex_normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.forward(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FftForward)->Arg(128)->Arg(512)->Arg(1536)->Arg(2048);

// The allocation-free path: in-place transform through a caller-owned
// Workspace. The gap between this and BM_FftForward is the allocator +
// conversion tax the _into APIs remove (DESIGN.md §10).
void BM_FftForwardWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::FftPlan plan(n);
  dsp::FftPlan::Workspace ws = plan.make_workspace();
  dsp::Rng rng(1);
  dsp::cvec pristine(n);
  for (auto& v : pristine) v = rng.complex_normal();
  dsp::cvec x(n);
  for (auto _ : state) {
    // Refresh the buffer each iteration: transforming the transform's
    // output over and over drives the magnitudes to inf and the float
    // ops off the fast path.
    std::copy(pristine.begin(), pristine.end(), x.begin());
    plan.forward_inplace(x, ws);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FftForwardWorkspace)->Arg(512)->Arg(1536)->Arg(2048);

void BM_EnodebSubframe(benchmark::State& state) {
  lte::Enodeb::Config cfg;
  cfg.cell.bandwidth =
      static_cast<lte::Bandwidth>(static_cast<int>(state.range(0)));
  lte::Enodeb enb(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(enb.next_subframe());
  }
}
BENCHMARK(BM_EnodebSubframe)
    ->Arg(static_cast<int>(lte::Bandwidth::kMHz1_4))
    ->Arg(static_cast<int>(lte::Bandwidth::kMHz20));

void BM_PssSearch(benchmark::State& state) {
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz5;
  lte::Enodeb::Config ecfg;
  ecfg.cell = cell;
  lte::Enodeb enb(ecfg);
  const auto tx = enb.make_subframe(0);
  lte::CellSearcher searcher(cell);
  for (auto _ : state) {
    benchmark::DoNotOptimize(searcher.search(tx.samples));
  }
}
BENCHMARK(BM_PssSearch);

// Naive vs FFT correlation on the same input. Arg is the pattern length;
// 512 is the PSS-replica length at 5 MHz (the cell-search hot case), 128
// matches the historical micro-bench. Signal length is one 5 MHz
// subframe (7680 samples at 7.68 Msps).
void BM_CrossCorrelate(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  dsp::Rng rng(2);
  dsp::cvec sig(7680);
  dsp::cvec pat(m);
  for (auto& v : sig) v = rng.complex_normal();
  for (auto& v : pat) v = rng.complex_normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::cross_correlate(sig, pat));
  }
}
BENCHMARK(BM_CrossCorrelate)->Arg(128)->Arg(512);

void BM_FastCorrelate(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  dsp::Rng rng(2);
  dsp::cvec sig(7680);
  dsp::cvec pat(m);
  dsp::cvec out(sig.size() - pat.size() + 1);
  for (auto& v : sig) v = rng.complex_normal();
  for (auto& v : pat) v = rng.complex_normal();
  for (auto _ : state) {
    dsp::fast_correlate_into(sig, pat, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FastCorrelate)->Arg(128)->Arg(512);

// One full subframe through the allocation-free OFDM path: grid ->
// modulate_into -> demodulate_into. This is the per-drop inner loop of
// every Monte-Carlo bench, and the headline number for the ≥2× round-trip
// acceptance gate. 10 MHz numerology (K = 1024, 600 subcarriers).
void BM_OfdmRoundTrip(benchmark::State& state) {
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz10;
  lte::ResourceGrid grid(cell);
  dsp::Rng rng(3);
  for (std::size_t l = 0; l < grid.n_symbols(); ++l)
    for (auto& re : grid.symbol(l)) re = rng.complex_normal();
  lte::OfdmModulator mod(cell);
  lte::OfdmDemodulator demod(cell);
  dsp::cvec samples(cell.samples_per_subframe());
  lte::ResourceGrid rx(cell);
  for (auto _ : state) {
    mod.modulate_into(grid, samples);
    demod.demodulate_into(samples, rx);
    benchmark::DoNotOptimize(rx.symbol(0).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(samples.size()));
}
BENCHMARK(BM_OfdmRoundTrip);

// The batched demodulation path: N subframes through one
// demodulate_batch_into call sharing a single FFT workspace. The gap to
// N separate demodulate_into calls is the per-call scratch/plan overhead
// the batch API removes.
void BM_OfdmDemodBatch(benchmark::State& state) {
  const auto nbatch = static_cast<std::size_t>(state.range(0));
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz10;
  lte::Enodeb::Config ecfg;
  ecfg.cell = cell;
  lte::Enodeb enb(ecfg);
  dsp::cvec samples;
  for (std::size_t b = 0; b < nbatch; ++b) {
    const auto tx = enb.next_subframe();
    samples.insert(samples.end(), tx.samples.begin(), tx.samples.end());
  }
  lte::OfdmDemodulator demod(cell);
  dsp::FftPlan::Workspace ws = demod.plan().make_workspace();
  std::vector<lte::ResourceGrid> grids(nbatch, lte::ResourceGrid(cell));
  for (auto _ : state) {
    demod.demodulate_batch_into(samples, grids, ws);
    benchmark::DoNotOptimize(grids.front().symbol(0).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(samples.size()));
}
BENCHMARK(BM_OfdmDemodBatch)->Arg(1)->Arg(8);

// ---------------------------------------------------------------------
// Scalar-vs-SIMD speedups (DESIGN.md §14). Each workload is timed
// best-of-N at the scalar tier and at the best tier the host supports;
// the ratios land in fixed-name gauges so the run registry can trend
// them and `lscatter-obs regress` can gate them:
//
//   dsp.simd.tier                      best tier (0 scalar, 2 avx2)
//   dsp.simd.speedup.fft1024           1024-pt forward FFT (workspace path)
//   dsp.simd.speedup.corr_mac512       direct correlation, 512-tap pattern
//   dsp.simd.speedup.qam_demap64       64-QAM hard-decision demap
//   dsp.simd.speedup.ofdm_round_trip   10 MHz subframe mod + batch demod
//
// On a scalar-only host every ratio is 1.0 by construction, so the
// gauges stay comparable across machines.

template <typename F>
double best_seconds(F&& body, int reps) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    body();
    const std::chrono::duration<double> dt = clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

template <typename F>
double tier_speedup(F&& body, int reps) {
  dsp::set_simd_tier(dsp::SimdTier::kScalar);
  body();  // warm caches and thread-local scratch before timing
  const double scalar_s = best_seconds(body, reps);
  dsp::set_simd_tier(dsp::simd_best_supported());
  body();
  const double simd_s = best_seconds(body, reps);
  return simd_s > 0.0 ? scalar_s / simd_s : 1.0;
}

void record_simd_speedups() {
  const dsp::SimdTier best = dsp::simd_best_supported();
  const dsp::SimdTier prev = dsp::simd_tier();
  dsp::Rng rng(11);

  // 1024-pt forward FFT through the allocation-free workspace path.
  dsp::FftPlan plan(1024);
  dsp::FftPlan::Workspace ws = plan.make_workspace();
  dsp::cvec fft_src(1024), fft_buf(1024);
  for (auto& v : fft_src) v = rng.complex_normal();
  const double fft_speedup = tier_speedup(
      [&] {
        for (int k = 0; k < 200; ++k) {
          std::copy(fft_src.begin(), fft_src.end(), fft_buf.begin());
          plan.forward_inplace(fft_buf, ws);
          benchmark::DoNotOptimize(fft_buf.data());
        }
      },
      5);

  // Direct correlation MACs: 512-tap pattern over a 5 MHz subframe.
  dsp::cvec sig(7680), pat(512);
  for (auto& v : sig) v = rng.complex_normal();
  for (auto& v : pat) v = rng.complex_normal();
  dsp::cvec corr_out(sig.size() - pat.size() + 1);
  const double corr_speedup = tier_speedup(
      [&] {
        dsp::cross_correlate_into(sig, pat, corr_out);
        benchmark::DoNotOptimize(corr_out.data());
      },
      5);

  // 64-QAM hard decisions over ~100k symbols.
  const std::size_t nsym = 100000;
  std::vector<std::uint8_t> bits(nsym * 6);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_u32() & 1);
  dsp::cvec sym(nsym);
  lte::qam_modulate_into(bits, lte::Modulation::kQam64, sym);
  for (auto& v : sym) v += rng.complex_normal(0.03);
  const double qam_speedup = tier_speedup(
      [&] {
        lte::qam_demodulate_into(sym, lte::Modulation::kQam64, bits);
        benchmark::DoNotOptimize(bits.data());
      },
      5);

  // Full 10 MHz subframe round trip: modulate + batch demodulate.
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz10;
  lte::ResourceGrid grid(cell);
  for (std::size_t l = 0; l < grid.n_symbols(); ++l)
    for (auto& re : grid.symbol(l)) re = rng.complex_normal();
  lte::OfdmModulator mod(cell);
  lte::OfdmDemodulator demod(cell);
  dsp::FftPlan::Workspace dws = demod.plan().make_workspace();
  dsp::cvec samples(cell.samples_per_subframe());
  std::vector<lte::ResourceGrid> rx(1, lte::ResourceGrid(cell));
  const double rt_speedup = tier_speedup(
      [&] {
        for (int k = 0; k < 20; ++k) {
          mod.modulate_into(grid, samples);
          demod.demodulate_batch_into(samples, rx, dws);
          benchmark::DoNotOptimize(rx.front().symbol(0).data());
        }
      },
      5);

  dsp::set_simd_tier(prev);

  LSCATTER_OBS_GAUGE_SET("dsp.simd.tier", static_cast<double>(best));
  LSCATTER_OBS_GAUGE_SET("dsp.simd.speedup.fft1024", fft_speedup);
  LSCATTER_OBS_GAUGE_SET("dsp.simd.speedup.corr_mac512", corr_speedup);
  LSCATTER_OBS_GAUGE_SET("dsp.simd.speedup.qam_demap64", qam_speedup);
  LSCATTER_OBS_GAUGE_SET("dsp.simd.speedup.ofdm_round_trip", rt_speedup);

  std::printf("\nSIMD speedups (scalar -> %s):\n",
              dsp::to_string(best));
  std::printf("  fft1024         %6.2fx\n", fft_speedup);
  std::printf("  corr_mac512     %6.2fx\n", corr_speedup);
  std::printf("  qam_demap64     %6.2fx\n", qam_speedup);
  std::printf("  ofdm_round_trip %6.2fx\n", rt_speedup);
}

// Per-tier google-benchmark rows for the dispatch-sensitive kernels —
// registered only for tiers the host supports, so the row set is exactly
// the tiers that can run (a forced-scalar CI lane gets scalar-only rows).
void register_tier_benchmarks() {
  for (const dsp::SimdTier t :
       {dsp::SimdTier::kScalar, dsp::SimdTier::kAvx2}) {
    if (!dsp::simd_tier_supported(t)) continue;
    const std::string suffix = dsp::to_string(t);

    benchmark::RegisterBenchmark(
        ("BM_FftForwardWorkspace1024/" + suffix).c_str(),
        [t](benchmark::State& state) {
          const dsp::SimdTier prev = dsp::simd_tier();
          dsp::set_simd_tier(t);
          dsp::FftPlan plan(1024);
          dsp::FftPlan::Workspace ws = plan.make_workspace();
          dsp::Rng rng(1);
          dsp::cvec src(1024), buf(1024);
          for (auto& v : src) v = rng.complex_normal();
          for (auto _ : state) {
            std::copy(src.begin(), src.end(), buf.begin());
            plan.forward_inplace(buf, ws);
            benchmark::DoNotOptimize(buf.data());
            benchmark::ClobberMemory();
          }
          dsp::set_simd_tier(prev);
        });

    benchmark::RegisterBenchmark(
        ("BM_CrossCorrelate512/" + suffix).c_str(),
        [t](benchmark::State& state) {
          const dsp::SimdTier prev = dsp::simd_tier();
          dsp::set_simd_tier(t);
          dsp::Rng rng(2);
          dsp::cvec sig(7680), pat(512);
          for (auto& v : sig) v = rng.complex_normal();
          for (auto& v : pat) v = rng.complex_normal();
          dsp::cvec out(sig.size() - pat.size() + 1);
          for (auto _ : state) {
            dsp::cross_correlate_into(sig, pat, out);
            benchmark::DoNotOptimize(out.data());
            benchmark::ClobberMemory();
          }
          dsp::set_simd_tier(prev);
        });

    benchmark::RegisterBenchmark(
        ("BM_QamDemap64/" + suffix).c_str(),
        [t](benchmark::State& state) {
          const dsp::SimdTier prev = dsp::simd_tier();
          dsp::set_simd_tier(t);
          dsp::Rng rng(4);
          const std::size_t nsym = 10000;
          std::vector<std::uint8_t> bits(nsym * 6);
          for (auto& b : bits)
            b = static_cast<std::uint8_t>(rng.next_u32() & 1);
          dsp::cvec sym(nsym);
          lte::qam_modulate_into(bits, lte::Modulation::kQam64, sym);
          for (auto _ : state) {
            lte::qam_demodulate_into(sym, lte::Modulation::kQam64, bits);
            benchmark::DoNotOptimize(bits.data());
            benchmark::ClobberMemory();
          }
          dsp::set_simd_tier(prev);
        });

    // One 20 MHz subframe of AWGN at a thermal-floor-like power: the
    // Monte-Carlo channel's last step (DESIGN.md §17).
    benchmark::RegisterBenchmark(
        ("BM_AddAwgn30720/" + suffix).c_str(),
        [t](benchmark::State& state) {
          const dsp::SimdTier prev = dsp::simd_tier();
          dsp::set_simd_tier(t);
          dsp::Rng rng(5);
          dsp::cvec x(30720);
          for (auto _ : state) {
            channel::add_awgn(x, 1e-9, rng);
            benchmark::DoNotOptimize(x.data());
            benchmark::ClobberMemory();
          }
          dsp::set_simd_tier(prev);
        });
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_tier_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  record_simd_speedups();
  const auto path = lscatter::obs::write_report_from_env(
      "bench_micro_dsp", "BENCH_micro_dsp.json");
  if (path) std::printf("JSON report: %s\n", path->c_str());
  return 0;
}
