// montecarlo_home_20mhz: the figure-regeneration sweep.
//
// Repeated sweeps of kDrops drops x kSubframes subframes of the smart-home
// 20 MHz scene with genie ambient (the paper's record-and-playback mode),
// through the parallel drop engine with exactly kWorkers pool workers
// (LSCATTER_THREADS does not apply: the count is passed explicitly). Each
// sweep uses its own base seed. The engine is driven through
// for_each_drop, which run_drops_parallel wraps, because the benchmark
// needs the per-drop delivery hook to time setup.
//
// Metrics (rounds, fastest quarter: see Summary in workload.hpp):
//   realtime_x      simulated IQ-seconds per wall-second of sweeping
//   latency_*_ms    per sweep (one figure point): call -> last delivery
//   pdr             pooled LinkMetrics packets_ok / packets_sent
//   setup_s         median over sweeps of sweep call -> first delivery
//   peak_rss_mb     process peak resident set

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/lscatter_rx.hpp"
#include "core/scenario.hpp"
#include "core/sim_pool.hpp"
#include "probe.hpp"
#include "scene.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace lscatter;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kDrops = 16;
constexpr std::size_t kSubframes = 5;
/// Sweeps of the traced phase re-run serially for the pool metrics.
constexpr std::size_t kSerialSweeps = 2;
/// Subframes of scene + demod calls, and LinkSimulator drops, timed one by
/// one by measure_scene_layers.
constexpr std::size_t kSceneSubframes = 40;
constexpr std::size_t kSceneDrops = 2;

struct Sweep {
  double wall_s = 0.0;
  core::LinkConfig base;
  std::vector<core::LinkMetrics> per_drop;
};

struct PhaseStats {
  std::size_t sweeps = 0;
  double wall_s = 0.0;
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  core::LinkMetrics total;
  double consumer_wait_s = 0.0;
};

Sweep run_sweep(const core::LinkConfig& base, Tracer& tracer,
                PhaseStats& stats) {
  Sweep sweep;
  sweep.base = base;
  sweep.per_drop.resize(kDrops);
  core::PoolOptions pool;
  pool.threads = kWorkers;
  const auto t0 = Clock::now();
  auto last_return = t0;
  core::for_each_drop(
      base, kDrops, kSubframes, pool, [&](const core::DropOutcome& outcome) {
        const auto now = Clock::now();
        if (outcome.drop_index == 0) {
          stats.setup_s.push_back(seconds_between(t0, now));
        }
        stats.consumer_wait_s += seconds_between(last_return, now);
        tracer.record("core.pool.wait", last_return, now);
        sweep.per_drop[outcome.drop_index] = outcome.metrics;
        stats.total += outcome.metrics;
        last_return = Clock::now();
      });
  const auto t1 = Clock::now();
  tracer.record("core.pool.sweep", t0, t1);
  sweep.wall_s = seconds_between(t0, t1);
  stats.latency_ms.push_back(1e3 * sweep.wall_s);
  ++stats.sweeps;
  stats.wall_s += sweep.wall_s;
  return sweep;
}

/// Sweep until `seconds` of sweeping have passed; sweep k of the run uses
/// base seed derive_seed(seed, k).
std::vector<Sweep> run_phase(const core::LinkConfig& scene,
                             std::uint64_t seed, std::uint64_t& sweep_index,
                             double seconds, Tracer& tracer,
                             PhaseStats& stats) {
  std::vector<Sweep> kept;
  while (stats.wall_s < seconds) {
    core::LinkConfig base = scene;
    base.seed = dsp::derive_seed(seed, sweep_index++);
    Sweep s = run_sweep(base, tracer, stats);
    if (kept.size() < kSerialSweeps) kept.push_back(std::move(s));
  }
  return kept;
}

void check_metrics(const core::LinkMetrics& m, Result& result) {
  if (m.packets_sent == 0 || m.packets_detected > m.packets_sent ||
      m.packets_ok > m.packets_detected) {
    result.violation("pooled LinkMetrics are inconsistent: sent " +
                     std::to_string(m.packets_sent) + ", detected " +
                     std::to_string(m.packets_detected) + ", ok " +
                     std::to_string(m.packets_ok));
  }
}

}  // namespace

Result run_montecarlo_workload(const Options& options, Tracer& tracer) {
  Result result;
  Tracer untraced(false);

  core::ScenarioOptions so;
  so.bandwidth = lte::Bandwidth::kMHz20;
  so.seed = options.seed;
  const core::LinkConfig scene =
      core::make_scenario(core::Scene::kSmartHome, so);
  std::printf("sweep: smart home 20MHz genie ambient, %zu drops x %zu "
              "subframes per sweep, %zu pool workers\n",
              kDrops, kSubframes, kWorkers);

  std::uint64_t sweep_index = 0;
  PhaseStats warmup;
  run_phase(scene, options.seed, sweep_index, 1e-9, untraced, warmup);

  // A traced run spends half its time untraced, as one round.
  const std::size_t rounds = options.trace ? 1 : round_count(options.seconds);
  const double round_s =
      (options.trace ? options.seconds / 2.0 : options.seconds) /
      static_cast<double>(rounds);
  std::vector<Round> timed;
  core::LinkMetrics total;
  for (std::size_t r = 0; r < rounds; ++r) {
    PhaseStats st;
    run_phase(scene, options.seed, sweep_index, round_s, untraced, st);
    timed.push_back(
        {1e-3 * static_cast<double>(st.sweeps * kDrops * kSubframes),
         st.wall_s, std::move(st.latency_ms), std::move(st.setup_s)});
    total += st.total;
  }
  check_metrics(total, result);
  const Summary sum = summarize(timed);
  print_rounds(timed);
  const double realtime = sum.realtime_x;
  const double pdr = static_cast<double>(total.packets_ok) /
                     static_cast<double>(total.packets_sent);
  result.attempted = total.packets_sent;
  std::printf("timed sweeps: %zu rounds, %.3f s of IQ in %.3f s, %zu "
              "packets sent, %zu ok\n",
              timed.size(), sum.iq_s, sum.wall_s, total.packets_sent,
              total.packets_ok);
  print_summary(sum, timed.size(), "sweeps", "sweeps' first deliveries");
  std::printf("  %-16s %10.4f      (%zu of %zu packets)\n", "pdr", pdr,
              total.packets_ok, total.packets_sent);

  if (!options.trace) {
    result.set("realtime_x", realtime, "x");
    result.set("latency_p50_ms", sum.p50_ms, "ms");
    result.set("latency_p95_ms", sum.p95_ms, "ms");
    result.set("pdr", pdr, "ratio");
    result.set("setup_s", sum.setup_s, "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Traced phase: spans at the consumer, then serial re-runs, and outside
  // the sweep the scene and demod calls one by one and the UE chain.
  PhaseStats traced;
  const std::vector<Sweep> kept = run_phase(
      scene, options.seed, sweep_index, options.seconds / 2.0, tracer, traced);
  check_metrics(traced.total, result);
  const double traced_realtime =
      1e-3 * static_cast<double>(traced.sweeps * kDrops * kSubframes) /
      traced.wall_s;

  // Serial re-run of the first sweeps: per-drop cost, pool efficiency,
  // and bit-identity of pooled and serial results.
  double serial_s = 0.0;
  double pooled_s = 0.0;
  for (const Sweep& s : kept) {
    for (std::size_t d = 0; d < kDrops; ++d) {
      const auto t0 = Clock::now();
      core::LinkSimulator sim(core::config_for_drop(s.base, d));
      const core::LinkMetrics m = sim.run(kSubframes);
      const auto t1 = Clock::now();
      tracer.record("core.link.run", t0, t1, 0, 1);
      serial_s += seconds_between(t0, t1);
      if (!(m == s.per_drop[d])) {
        result.violation("drop " + std::to_string(d) +
                         " differs between the pool and a serial re-run");
      }
    }
    pooled_s += s.wall_s;
  }

  result.set("core.demod.preamble_found_ratio",
             static_cast<double>(traced.total.packets_detected) /
                 static_cast<double>(traced.total.packets_sent),
             "ratio");
  result.set("core.demod.crc_ok_ratio",
             traced.total.packets_detected == 0
                 ? 0.0
                 : static_cast<double>(traced.total.packets_ok) /
                       static_cast<double>(traced.total.packets_detected),
             "ratio");
  result.set("core.pool.efficiency",
             serial_s / (static_cast<double>(kWorkers) * pooled_s), "ratio");
  result.set("core.pool.consumer_wait_share",
             traced.consumer_wait_s / traced.wall_s, "ratio");
  result.set("trace.overhead", traced_realtime / realtime, "x");

  std::printf("\ntraced phase: %zu sweeps in %.3f s (realtime %.4fx vs "
              "%.4fx untraced, trace.overhead %.4f)\n",
              traced.sweeps, traced.wall_s, traced_realtime, realtime,
              traced_realtime / realtime);
  std::printf("  serial re-run of %zu sweeps: %.3f s vs %.3f s pooled on "
              "%zu workers (efficiency %.3f), pooled == serial: %s\n",
              kept.size(), serial_s, pooled_s, kWorkers,
              serial_s / (static_cast<double>(kWorkers) * pooled_s),
              result.correct ? "yes" : "NO");

  // The layers the sweep runs inside its workers, one call at a time on the
  // first drop's config, and the UE chain the sweep does not run.
  const core::LinkConfig first = core::config_for_drop(kept.front().base, 0);
  measure_scene_layers(first, tracer, result);
  result.set("core.demod.offset_search_us_per_pkt",
             tracer.mean_us("core.demod.offset_search"), "us");
  result.set("core.demod.crc_us_per_pkt",
             tracer.mean_us("core.demod.crc"), "us");
  measure_ue_layers(first, first.seed, tracer, result);
  return result;
}

void measure_scene_layers(const core::LinkConfig& config, Tracer& tracer,
                          Result& result) {
  SceneSource source(config, 0.0, config.seed, NoiseModel::kAwgn);
  PacketProbe probe(config.enodeb.cell, config.schedule, config.search);
  const core::LscatterDemodulator demod(config.enodeb.cell, config.schedule,
                                        config.search, config.fec);
  std::size_t probe_mismatches = 0;
  for (std::size_t sf = 0; sf < kSceneSubframes; ++sf) {
    dsp::cvec rx;
    dsp::cvec genie;
    const SlotTruth truth = source.generate(sf, rx, nullptr, &genie, tracer);
    if (!truth.payload) continue;
    const auto t0 = Clock::now();
    const core::PacketDemodResult res = demod.demodulate_packet(rx, genie, sf);
    tracer.record("core.demod.packet", t0, Clock::now());
    const auto found = probe.offset_search(rx, genie, sf, tracer);
    bool agree = found.has_value() == res.preamble_found &&
                 (!found || found->offset_units == res.offset_units);
    if (res.coded_bits.size() > 32) {
      agree = agree && probe.crc(res.coded_bits, tracer) ==
                           res.payload.has_value();
    }
    if (!agree) ++probe_mismatches;
    if (res.payload && *res.payload != *truth.payload) {
      result.violation("demodulate_packet delivered a payload the tag did "
                       "not send on subframe " + std::to_string(sf));
    }
  }
  if (probe_mismatches != 0) {
    result.violation(std::to_string(probe_mismatches) +
                     " offset-search/CRC probes disagree with "
                     "demodulate_packet");
  }
  for (std::size_t d = 0; d < kSceneDrops; ++d) {
    const auto t0 = Clock::now();
    core::LinkSimulator sim(core::config_for_drop(config, d));
    sim.run(kSubframes);
    tracer.record("core.link.run", t0, Clock::now());
  }

  result.set("channel.awgn_us_per_sf", tracer.mean_us("channel.awgn"),
             "us");
  result.set("lte.enodeb.us_per_sf", tracer.mean_us("lte.enodeb"), "us");
  result.set("tag.apply_pattern_us_per_sf",
             tracer.mean_us("tag.apply_pattern"), "us");
  result.set("core.demod.packet_us", tracer.mean_us("core.demod.packet"),
             "us");
  result.set("core.link.run_ms_per_drop",
             1e-3 * tracer.mean_us("core.link.run"), "ms");
  std::printf("  scene calls, one at a time on drop seed %llu (%zu "
              "subframes): enodeb %.1f us, apply_pattern %.1f us, awgn "
              "%.1f us per subframe; demodulate_packet %.1f us per packet; "
              "LinkSimulator::run %.2f ms per %zu-subframe drop\n",
              static_cast<unsigned long long>(config.seed), kSceneSubframes,
              tracer.mean_us("lte.enodeb"),
              tracer.mean_us("tag.apply_pattern"),
              tracer.mean_us("channel.awgn"),
              tracer.mean_us("core.demod.packet"),
              1e-3 * tracer.mean_us("core.link.run"), kSubframes);
}

}  // namespace perfbench
