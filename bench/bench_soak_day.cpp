// 24-hour streaming soak: replay a full smart-home + mall traffic day
// through the lock-free DecodePipeline faster than real time (DESIGN.md
// §15, ROADMAP item 3).
//
// The bench answers three questions the figure benches cannot:
//   1. Throughput headroom — what aggregate realtime multiple (total
//      IQ-seconds decoded per wall-second, all carriers) does the
//      pipelined decoder sustain? (gate: --min-realtime, default 20x)
//   2. Bounded latency — p99 end-to-end decode latency (push timestamp to
//      packet emission) over the whole day, sampled per simulated hour
//      into a SnapshotSeries.
//   3. Zero steady-state allocation — after a warmup covering at least
//      one full LTE frame (one simulated hour at the default --sph), the
//      entire process (producer + every worker) must perform exactly
//      ZERO heap allocations for the remaining hours. Enforced by the
//      counting operator-new hook in obs/alloc_probe.hpp; any violation
//      is a non-zero exit.
//
// Day model: each simulated hour is `--sph` subframes of IQ per carrier.
// The tag's duty cycle follows the site's hour-of-day activity profile
// (traffic::OccupancyModel) — a home tag chatters in the evening, a mall
// tag around 8 pm — so ring fill and decode load vary across the day the
// way a deployment's would. All IQ is pre-generated untimed; only
// push -> ring -> decode is timed.
//
// CI: scripts/bench_gate.sh runs a short smoke slice (--sph=8); the
// nightly TSan lane runs a fuller day with --min-realtime=0 (sanitizer
// timing is not a perf statement) and records p99 into the run registry.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "core/decode_pipeline.hpp"
#include "core/framing.hpp"
#include "core/scenario.hpp"
#include "lte/enodeb.hpp"
#include "obs/alloc_probe.hpp"
#include "obs/obs.hpp"
#include "obs/snapshot.hpp"
#include "tag/modulator.hpp"
#include "tag/tag_controller.hpp"
#include "traffic/occupancy_model.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;
using dsp::cvec;

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CarrierDay {
  cvec rx;
  cvec ambient;
  std::size_t packets_sent = 0;
};

/// Pre-generate one carrier's whole day of IQ. `site` shapes the tag's
/// hourly duty cycle; every hour keeps a >= 30% floor so no hour is
/// silent.
CarrierDay make_day(const lte::CellConfig& cell,
                    const tag::TagScheduleConfig& sched, traffic::Site site,
                    std::size_t hours, std::size_t sph,
                    std::uint64_t seed) {
  lte::Enodeb::Config ecfg;
  ecfg.cell = cell;
  ecfg.seed = seed;
  lte::Enodeb enb(ecfg);
  tag::TagController ctl(cell, sched);
  dsp::Rng prng(seed + 1);
  const traffic::OccupancyModel activity(traffic::Technology::kWifi, site);

  CarrierDay day;
  day.rx.reserve(hours * sph * cell.samples_per_subframe());
  day.ambient.reserve(hours * sph * cell.samples_per_subframe());
  std::size_t sf = 0;
  for (std::size_t hour = 0; hour < hours; ++hour) {
    const double duty =
        0.3 + 0.7 * activity.mean_occupancy(hour % 24);
    for (std::size_t k = 0; k < sph; ++k, ++sf) {
      const auto tx = enb.next_subframe();
      const std::size_t cap = ctl.packet_raw_bits(sf);
      tag::SubframePlan plan;
      if (!ctl.is_listening_subframe(sf) && cap > 32 &&
          prng.uniform() < duty) {
        const core::PacketCodec codec(cap);
        plan = ctl.plan_subframe(
            sf, true,
            core::split_bits(codec.encode(prng.bits(codec.payload_bits())),
                             ctl.bits_per_symbol()));
        ++day.packets_sent;
      } else {
        plan = ctl.plan_subframe(sf, false, {});
      }
      const auto pattern = tag::expand_to_units(cell, plan);
      const auto scat =
          tag::apply_pattern(tx.samples, pattern, 7, cf32{1e-3f, 4e-4f});
      day.rx.insert(day.rx.end(), scat.begin(), scat.end());
      day.ambient.insert(day.ambient.end(), tx.samples.begin(),
                         tx.samples.end());
    }
  }
  return day;
}

/// Push one subframe-aligned slice of every carrier's day, throttling
/// when a ring nears capacity so the replay is lossless (drop handling
/// is exercised by the unit tests; the soak measures decode throughput).
void push_slice(core::DecodePipeline& pipe,
                const std::vector<CarrierDay>& days, std::size_t begin,
                std::size_t end, std::size_t chunk) {
  for (std::size_t pos = begin; pos < end; pos += chunk) {
    const std::size_t n = std::min(chunk, end - pos);
    for (std::size_t c = 0; c < days.size(); ++c) {
      while (pipe.ring(c).fill() + 2 >= pipe.ring(c).capacity_chunks()) {
        std::this_thread::yield();
      }
      pipe.push(c,
                std::span<const cf32>(days[c].rx).subspan(pos, n),
                std::span<const cf32>(days[c].ambient).subspan(pos, n));
    }
  }
}

/// Block until every ring is empty and the decode side has gone quiet.
void drain(const core::DecodePipeline& pipe) {
  for (;;) {
    bool empty = true;
    for (std::size_t c = 0; c < pipe.carriers(); ++c) {
      if (pipe.ring(c).fill() != 0) {
        empty = false;
        break;
      }
    }
    if (!empty) {
      std::this_thread::yield();
      continue;
    }
    // Rings are empty; wait for in-flight feeds to finish emitting.
    const std::uint64_t before = pipe.packets_decoded();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (pipe.packets_decoded() == before) return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::print_header(
      "Streaming soak: 24h smart-home + mall day through DecodePipeline",
      "DESIGN.md §15 (bounded-latency always-on receiver)");
  benchutil::init_threads(argc, argv);

  using benchutil::flag_count;
  std::size_t hours = flag_count(argc, argv, "--hours", 24, 0);
  // Subframes (= ms of IQ) per simulated hour.
  std::size_t sph = flag_count(argc, argv, "--sph", 100, 0);
  // Default: smart-home + mall.
  std::size_t carriers = flag_count(argc, argv, "--carriers", 2, 0);
  const std::size_t ring_chunks =
      flag_count(argc, argv, "--ring-chunks", 64, 0);
  // 0 disables the gate (sanitizer lanes).
  const double min_realtime =
      benchutil::flag_real(argc, argv, "--min-realtime", 20.0);
  const std::uint64_t seed = flag_count(argc, argv, "--seed", 2020, 0);
  if (carriers < 1) carriers = 1;
  if (sph < 1) sph = 1;
  // Warmup must visit every subframe phase mod 10: the per-phase packet
  // capacities select distinct codec-cache entries and buffer sizes, and
  // any phase first seen after warmup would allocate inside the timed
  // region. Thin smoke runs (--sph < 10) therefore warm up for several
  // hours until one whole frame has passed.
  const std::size_t warmup_hours =
      (lte::kSubframesPerFrame + sph - 1) / sph;
  if (hours < warmup_hours + 1) hours = warmup_hours + 1;

  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  tag::TagScheduleConfig sched;
  const std::size_t spsf = cell.samples_per_subframe();

  std::printf("hours=%zu sph=%zu carriers=%zu ring=%zu chunks seed=%llu\n",
              hours, sph, carriers, ring_chunks,
              static_cast<unsigned long long>(seed));
  std::printf("IQ per carrier: %.1f s (%.1f MB rx+ambient)\n",
              1e-3 * static_cast<double>(hours * sph),
              static_cast<double>(hours * sph * spsf * 2 * sizeof(cf32)) /
                  1e6);

  // ---- untimed: pre-generate every carrier's day -------------------
  const traffic::Site sites[] = {traffic::Site::kHome, traffic::Site::kMall,
                                 traffic::Site::kOffice,
                                 traffic::Site::kOutdoor};
  std::vector<CarrierDay> days;
  std::size_t sent_total = 0;
  for (std::size_t c = 0; c < carriers; ++c) {
    days.push_back(make_day(cell, sched, sites[c % 4], hours, sph,
                            seed + 1000 * c));
    sent_total += days.back().packets_sent;
  }
  std::printf("generated %zu packets across %zu carrier(s)\n\n", sent_total,
              carriers);

  benchutil::BenchReport report("bench_soak_day", "BENCH_soak.json");
  report.params()["hours"] = static_cast<std::uint64_t>(hours);
  report.params()["sph"] = static_cast<std::uint64_t>(sph);
  report.params()["carriers"] = static_cast<std::uint64_t>(carriers);
  report.params()["seed"] = seed;

  obs::SnapshotSeries series({.capacity = 64, .every = 1});
  series.add_histogram_quantile("core.pipeline.e2e.seconds", 0.50);
  series.add_histogram_quantile("core.pipeline.e2e.seconds", 0.99);
  series.add_counter("core.stream.dropped");
  series.add_counter("core.demod.crc_ok");

  core::DecodePipeline::Config pcfg;
  for (std::size_t c = 0; c < carriers; ++c) {
    core::StreamingReceiver::Config rcfg;
    rcfg.cell = cell;
    rcfg.schedule = sched;
    pcfg.carriers.push_back(rcfg);
  }
  pcfg.ring_chunks = ring_chunks;
  pcfg.threads = benchutil::bench_threads();
  std::atomic<std::uint64_t> crc_ok{0};
  pcfg.on_packet = [&crc_ok](std::size_t, const auto& ev) {
    if (ev.result.payload.has_value()) crc_ok.fetch_add(1, std::memory_order_relaxed);
  };
  core::DecodePipeline pipe(pcfg);
  pipe.start();
  std::printf("pipeline: %zu worker(s) for %zu carrier(s)\n", pipe.threads(),
              pipe.carriers());

  // ---- warmup (grows every buffer, caches, FFT scratch) ------------
  push_slice(pipe, days, 0, warmup_hours * sph * spsf, spsf);
  drain(pipe);
  series.tick(0.0);

  // ---- remaining hours: the timed, allocation-free soak ------------
  const std::uint64_t alloc_before = obs::alloc_probe_count();
  const double t0 = wall_seconds();
  for (std::size_t hour = warmup_hours; hour < hours; ++hour) {
    push_slice(pipe, days, hour * sph * spsf, (hour + 1) * sph * spsf,
               spsf);
    if (hour + 1 < hours) series.tick(static_cast<double>(hour));
  }
  drain(pipe);
  const double wall = wall_seconds() - t0;
  const std::uint64_t alloc_delta = obs::alloc_probe_count() - alloc_before;
  series.tick(static_cast<double>(hours - 1));
  pipe.stop();

  // ---- results -----------------------------------------------------
  const double iq_seconds =  // per carrier, timed hours only
      1e-3 * static_cast<double>((hours - warmup_hours) * sph);
  const double per_carrier = iq_seconds / wall;
  // The gate is on aggregate throughput — total IQ-seconds decoded per
  // wall-second across every carrier. On a single core, N carriers each
  // run at aggregate/N; the machine's decode capacity is what bounds an
  // always-on deployment.
  const double realtime = per_carrier * static_cast<double>(carriers);
  std::uint64_t dropped = 0;
  for (std::size_t c = 0; c < carriers; ++c) {
    dropped += pipe.ring(c).dropped_samples();
  }
  // Latency is read from the obs histogram, which a -DLSCATTER_OBS=OFF
  // build never fills: there it prints n/a and stays out of the row.
  constexpr bool kLatencyMeasured = LSCATTER_OBS_ENABLED != 0;
  const auto rep = obs::build_report("bench_soak_day");
  const double p99 =
      obs::metric_value(rep, "histograms.core.pipeline.e2e.seconds.p99")
          .value_or(0.0);
  const double p50 =
      obs::metric_value(rep, "histograms.core.pipeline.e2e.seconds.p50")
          .value_or(0.0);

  std::printf("\nsoak: %.2f s of IQ per carrier in %.2f s wall\n",
              iq_seconds, wall);
  std::printf("realtime multiple: %.1fx aggregate (%.1fx per carrier, "
              "%zu carriers concurrently)\n",
              realtime, per_carrier, carriers);
  if (kLatencyMeasured) {
    std::printf("e2e decode latency: p50 %.3f ms, p99 %.3f ms\n",
                p50 * 1e3, p99 * 1e3);
  } else {
    std::printf("e2e decode latency: n/a (obs compiled out)\n");
  }
  std::printf("packets: %zu sent, %llu crc_ok (%llu subframes demodulated), "
              "%llu samples dropped\n",
              sent_total, static_cast<unsigned long long>(crc_ok.load()),
              static_cast<unsigned long long>(pipe.packets_decoded()),
              static_cast<unsigned long long>(dropped));
  std::printf("steady-state allocations (hours %zu..%zu): %llu\n",
              warmup_hours, hours - 1,
              static_cast<unsigned long long>(alloc_delta));

  obs::json::Object& row = report.add_row();
  row["realtime_multiple"] = realtime;
  row["realtime_per_carrier"] = per_carrier;
  if (kLatencyMeasured) {
    row["e2e_p50_s"] = p50;
    row["e2e_p99_s"] = p99;
  }
  row["packets_sent"] = static_cast<std::uint64_t>(sent_total);
  row["packets_crc_ok"] = crc_ok.load();
  row["subframes_demodulated"] = pipe.packets_decoded();
  row["dropped_samples"] = dropped;
  row["steady_state_allocs"] = alloc_delta;
  report.extra()["snapshot"] = series.to_json();

  bool ok = true;
  if (alloc_delta != 0) {
    std::printf("FAIL: %llu heap allocation(s) after warmup — the soak "
                "steady state must allocate exactly zero\n",
                static_cast<unsigned long long>(alloc_delta));
    ok = false;
  }
  if (min_realtime > 0.0 && realtime < min_realtime) {
    std::printf("FAIL: realtime multiple %.1fx below the --min-realtime=%g "
                "gate\n",
                realtime, min_realtime);
    ok = false;
  }
  // The replay is lossless, so every sent packet reaches the decoder;
  // packets that START on a sync subframe (PSS/SSS steal two symbols)
  // decode marginally at this SNR, so allow a small CRC-miss tail — but
  // never a CRC pass the tag did not transmit.
  if (crc_ok.load() > sent_total ||
      static_cast<double>(crc_ok.load()) <
          0.95 * static_cast<double>(sent_total)) {
    std::printf("FAIL: %llu crc_ok of %zu packets sent in a lossless "
                "replay (need >= 95%% and no false positives)\n",
                static_cast<unsigned long long>(crc_ok.load()), sent_total);
    ok = false;
  }
  if (dropped != 0) {
    std::printf("FAIL: %llu samples dropped despite producer throttling\n",
                static_cast<unsigned long long>(dropped));
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
