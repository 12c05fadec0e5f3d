// UE workloads: ue_20mhz_blind and ue_1p4mhz_ragged.
//
// A closed loop on one core. The UE is handed the original band one
// subframe at a time and rebuilds the ambient from it
// (AmbientReconstructor::reconstruct_blind, no genie inputs); the
// backscatter band goes to StreamingReceiver::feed either one subframe per
// call or in ragged SDR-style chunks. IQ is generated untimed in blocks
// between timed stretches; every packet event is scored against what the
// tag sent.
//
// Metrics (rounds, fastest quarter: see Summary in workload.hpp):
//   realtime_x      IQ-seconds decoded per second of timed loop
//   latency_*_ms    per sent packet: rebuild start of the packet's final
//                   subframe -> return of the feed() call emitting it
//   pdr             CRC-clean packets with exactly the sent payload / sent
//   setup_s         median cold start (two per round): construct
//                   searcher, reconstructor and receiver, search the
//                   original band for the cell, then rebuild + feed until
//                   the first CRC-clean packet
//   peak_rss_mb     process peak resident set

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/ambient_reconstructor.hpp"
#include "core/scenario.hpp"
#include "core/sim_pool.hpp"
#include "core/streaming_receiver.hpp"
#include "dsp/rng.hpp"
#include "lte/ue_sync.hpp"
#include "probe.hpp"
#include "scene.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace lscatter;
using dsp::cf32;
using dsp::cvec;

/// Share of packet slots on which the tag stays silent, so that every run
/// also checks that the UE never delivers a packet nobody sent.
constexpr double kIdleShare = 0.1;

/// Cold-start streams begin inside SFN 1023 (running subframe index
/// 10230..10239), so the first whole frame the UE acquires is SFN 0 and
/// its subframe counter can start at 0 without decoding the MIB. Four
/// frames leave room for acquisition retries.
constexpr std::size_t kColdStartFirstSubframe = 10230;
constexpr std::size_t kColdStartSubframes = 40;
constexpr std::uint64_t kColdStartDraws = 8;

/// Cold starts ahead of each timed round, and ahead of a traced run's
/// untraced half.
constexpr std::size_t kColdStartsPerRound = 2;
constexpr std::size_t kTracedColdStarts = 5;

core::StreamingReceiver::Config receiver_config(const lte::CellConfig& cell,
                                                const core::LinkConfig& link) {
  core::StreamingReceiver::Config rc;
  rc.cell = cell;
  rc.schedule = link.schedule;
  rc.search = link.search;
  rc.first_subframe_index = 0;
  return rc;
}

/// Running totals of one timed phase of the steady-state loop.
struct PhaseStats {
  std::size_t subframes = 0;
  double wall_s = 0.0;            // timed loop only (probes excluded)
  std::vector<double> latency_ms;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t preamble_found = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t dci_failures = 0;
  std::uint64_t probe_mismatches = 0;
};

class UeLoop {
 public:
  UeLoop(const UeSpec& spec, const core::LinkConfig& link,
         std::uint64_t seed)
      : spec_(spec),
        link_(link),
        seed_(seed),
        cell_(link.enodeb.cell),
        sps_(cell_.samples_per_subframe()),
        scene_(link, kIdleShare, dsp::derive_seed(seed, 11),
               NoiseModel::kTable),
        chunk_rng_(dsp::derive_seed(seed, 12)),
        reconstructor_(cell_),
        receiver_(receiver_config(cell_, link)),
        probe_(cell_, link.schedule, link.search) {}

  /// Run whole blocks until `seconds` of timed loop (or, when seconds is
  /// 0, `blocks` blocks) have passed. With `probes`, every packet event is
  /// also re-checked by the offset-search and CRC probes.
  void run(double seconds, std::size_t blocks, Tracer& tracer, bool probes,
           PhaseStats& stats, Result& result) {
    for (std::size_t b = 0;
         seconds > 0.0 ? stats.wall_s < seconds : b < blocks; ++b) {
      run_block(tracer, probes, stats, result);
    }
  }

 private:
  void make_chunks() {
    const std::size_t total = spec_.block_subframes * sps_;
    chunks_.clear();
    if (!spec_.ragged) {
      chunks_.assign(spec_.block_subframes, sps_);
      return;
    }
    // Log-uniform lengths: mostly short reads with a tail past one
    // subframe. The block's last chunk is cut at the block boundary.
    const double lo = std::log(static_cast<double>(spec_.min_chunk));
    const double hi = std::log(static_cast<double>(spec_.max_chunk));
    for (std::size_t pos = 0; pos < total;) {
      auto len = static_cast<std::size_t>(
          std::exp(chunk_rng_.uniform(lo, hi)));
      len = std::min(std::max<std::size_t>(len, 1), total - pos);
      chunks_.push_back(len);
      pos += len;
    }
  }

  void run_block(Tracer& tracer, bool probes, PhaseStats& stats,
                 Result& result) {
    // Untimed: this block's IQ and ground truth. Every subframe is its own
    // radio draw, so pdr averages over thousands of channel states.
    backscatter_.clear();
    original_.clear();
    truths_.clear();
    for (std::size_t s = 0; s < spec_.block_subframes; ++s) {
      scene_.redraw(dsp::derive_seed(seed_, 1000 + first_sf_ + s));
      truths_.push_back(scene_.generate(first_sf_ + s, backscatter_,
                                        &original_, nullptr, untraced_));
    }
    ambient_.resize(backscatter_.size());
    rebuild_start_.assign(spec_.block_subframes, Clock::time_point{});
    make_chunks();

    const bool traced = tracer.enabled();
    double probe_s = 0.0;
    std::size_t rebuilt = 0;
    std::size_t pos = 0;
    std::size_t events = 0;
    const auto block_t0 = Clock::now();
    for (const std::size_t len : chunks_) {
      const auto step_t0 = Clock::now();
      // Rebuild every subframe this chunk reaches into before feeding it.
      while (rebuilt * sps_ < pos + len) {
        const std::uint64_t a0 = traced ? heap_allocations() : 0;
        const auto t0 = Clock::now();
        rebuild_start_[rebuilt] = t0;
        const auto rec = reconstructor_.reconstruct_blind(
            std::span<const cf32>(original_).subspan(rebuilt * sps_, sps_),
            first_sf_ + rebuilt, link_.enodeb.enable_pbch,
            link_.enodeb.sync_boost_db);
        tracer.record("core.rebuild", t0, Clock::now(),
                      traced ? heap_allocations() - a0 : 0);
        cf32* dst = ambient_.data() + rebuilt * sps_;
        if (rec) {
          std::copy(rec->samples.begin(), rec->samples.end(), dst);
        } else {
          // DCI lost: no usable ambient reference for this subframe.
          std::fill(dst, dst + sps_, cf32{});
          ++stats.dci_failures;
        }
        ++stats.rebuilds;
        ++rebuilt;
      }
      const std::uint64_t a0 = traced ? heap_allocations() : 0;
      const auto f0 = Clock::now();
      const auto evs = receiver_.feed(
          std::span<const cf32>(backscatter_).subspan(pos, len),
          std::span<const cf32>(ambient_).subspan(pos, len));
      const auto f1 = Clock::now();
      tracer.record("core.stream.feed", f0, f1,
                    traced ? heap_allocations() - a0 : 0);
      for (const auto& ev : evs) score(ev, f1, stats, result);
      events += evs.size();
      tracer.record("ue.step", step_t0, Clock::now());
      if (probes && !evs.empty()) {
        const auto p0 = Clock::now();
        for (const auto& ev : evs) probe(ev, tracer, stats, result);
        probe_s += seconds_between(p0, Clock::now());
      }
      pos += len;
    }
    stats.wall_s += seconds_between(block_t0, Clock::now()) - probe_s;
    stats.subframes += spec_.block_subframes;

    std::size_t packet_slots = 0;
    for (const auto& t : truths_) packet_slots += t.packet_slot ? 1 : 0;
    if (events != packet_slots) {
      result.violation("receiver emitted " + std::to_string(events) +
                       " events for " + std::to_string(packet_slots) +
                       " packet slots in subframes " +
                       std::to_string(first_sf_) + "+");
    }
    first_sf_ += spec_.block_subframes;
  }

  const SlotTruth* truth_for(std::size_t subframe_index) const {
    if (subframe_index < first_sf_ ||
        subframe_index >= first_sf_ + truths_.size()) {
      return nullptr;
    }
    return &truths_[subframe_index - first_sf_];
  }

  void score(const core::StreamingReceiver::PacketEvent& ev,
             Clock::time_point returned, PhaseStats& stats, Result& result) {
    const SlotTruth* truth = truth_for(ev.first_subframe_index);
    if (truth == nullptr || !truth->packet_slot) {
      result.violation("packet event on subframe " +
                       std::to_string(ev.first_subframe_index) +
                       ", which is not a packet slot of this block");
      return;
    }
    if (!std::isfinite(ev.result.preamble_metric)) {
      result.violation("non-finite preamble metric on subframe " +
                       std::to_string(ev.first_subframe_index));
    }
    if (!truth->payload) {
      if (ev.result.payload) {
        result.violation("CRC-clean packet on idle subframe " +
                         std::to_string(ev.first_subframe_index) +
                         " (the tag sent nothing)");
      }
      return;
    }
    ++stats.sent;
    stats.latency_ms.push_back(
        1e3 * seconds_between(
                  rebuild_start_[ev.first_subframe_index - first_sf_],
                  returned));
    if (ev.result.preamble_found) ++stats.preamble_found;
    if (ev.result.payload) {
      if (*ev.result.payload == *truth->payload) {
        ++stats.delivered;
      } else {
        result.violation("CRC-clean payload differs from the sent one on "
                         "subframe " +
                         std::to_string(ev.first_subframe_index));
      }
    }
  }

  void probe(const core::StreamingReceiver::PacketEvent& ev, Tracer& tracer,
             PhaseStats& stats, Result& result) {
    const SlotTruth* truth = truth_for(ev.first_subframe_index);
    if (truth == nullptr || !truth->payload) return;
    const std::size_t off = (ev.first_subframe_index - first_sf_) * sps_;
    const auto found = probe_.offset_search(
        std::span<const cf32>(backscatter_).subspan(off, sps_),
        std::span<const cf32>(ambient_).subspan(off, sps_),
        ev.first_subframe_index, tracer);
    bool agree = found.has_value() == ev.result.preamble_found &&
                 (!found || found->offset_units == ev.result.offset_units);
    if (ev.result.coded_bits.size() > 32) {
      agree = agree && probe_.crc(ev.result.coded_bits, tracer) ==
                           ev.result.payload.has_value();
    }
    if (!agree) {
      ++stats.probe_mismatches;
      result.violation("offset-search/CRC probe disagrees with the packet "
                       "event on subframe " +
                       std::to_string(ev.first_subframe_index));
    }
  }

  UeSpec spec_;
  core::LinkConfig link_;
  std::uint64_t seed_;
  Tracer untraced_{false};  // input generation is not a layer under test
  lte::CellConfig cell_;
  std::size_t sps_;
  SceneSource scene_;
  dsp::Rng chunk_rng_;
  core::AmbientReconstructor reconstructor_;
  core::StreamingReceiver receiver_;
  PacketProbe probe_;
  std::size_t first_sf_ = 0;  // running index of the block's first subframe
  cvec backscatter_;
  cvec original_;
  cvec ambient_;
  std::vector<SlotTruth> truths_;
  std::vector<std::size_t> chunks_;
  std::vector<Clock::time_point> rebuild_start_;
};

/// One cold start on a fresh stream that begins mid-frame. Returns the
/// seconds from constructing the UE to its first CRC-clean packet, or a
/// negative value after recording a violation.
///
/// The UE searches one frame (plus one symbol) of the original band and
/// confirms the cell by decoding the control channel of the first
/// acquired subframe; if that fails it searches again one subframe later.
/// The confirmation matters: when the buffer starts just before a PSS,
/// CellSearcher::search can lock onto that PSS while its SSS lies before
/// the buffer, returning a wrong N_ID1 and frame start with a perfect PSS
/// metric.
double cold_start(const core::LinkConfig& link, std::uint64_t seed,
                  Tracer& tracer, Result& result) {
  Tracer untraced(false);
  SceneSource scene(link, kIdleShare, seed, NoiseModel::kTable);
  // A UE cold-starting in a good spot: the best of kColdStartDraws radio
  // draws, so setup_s measures acquisition and first decode, not fading.
  std::uint64_t best_draw = 0;
  double best_snr = -1e9;
  for (std::uint64_t k = 0; k < kColdStartDraws; ++k) {
    scene.redraw(dsp::derive_seed(seed, 50 + k));
    if (scene.snr_db() > best_snr) {
      best_snr = scene.snr_db();
      best_draw = k;
    }
  }
  scene.redraw(dsp::derive_seed(seed, 50 + best_draw));
  const lte::CellConfig& truth_cell = link.enodeb.cell;
  const std::size_t sps = truth_cell.samples_per_subframe();
  const std::size_t frame = truth_cell.samples_per_frame();
  cvec backscatter;
  cvec original;
  std::vector<SlotTruth> truths;
  for (std::size_t s = 0; s < kColdStartSubframes; ++s) {
    truths.push_back(scene.generate(kColdStartFirstSubframe + s, backscatter,
                                    &original, nullptr, untraced));
  }
  // The radio starts `cut` samples into SFN 1023: mid-frame, mid-symbol.
  dsp::Rng cut_rng(dsp::derive_seed(seed, 7));
  const std::size_t cut =
      1 + cut_rng.uniform_int(static_cast<std::uint32_t>(frame - 1));
  const auto bs = std::span<const cf32>(backscatter).subspan(cut);
  const auto orig = std::span<const cf32>(original).subspan(cut);

  const auto t0 = Clock::now();
  // The UE knows its band and carrier, not the cell.
  lte::CellConfig cell;
  cell.bandwidth = truth_cell.bandwidth;
  cell.carrier_hz = truth_cell.carrier_hz;
  const lte::CellSearcher searcher(cell);
  std::optional<core::AmbientReconstructor> reconstructor;
  std::optional<core::ReconstructionResult> first;
  std::size_t start = 0;
  // Retry one subframe later: PSS repeats every 5 ms, so a whole-frame
  // step would recreate the same window geometry.
  for (std::size_t window = 0; !first; window += sps) {
    if (window + frame + cell.fft_size() + frame > orig.size()) {
      result.violation("cold start (seed " + std::to_string(seed) +
                       ") never confirmed a cell");
      return -1.0;
    }
    const auto s0 = Clock::now();
    const auto found =
        searcher.search(orig.subspan(window, frame + cell.fft_size()));
    tracer.record("lte.cellsearch", s0, Clock::now());
    if (!found) continue;
    cell.n_id_1 = found->n_id_1;
    cell.n_id_2 = found->n_id_2;
    start = window + found->frame_start;
    reconstructor.emplace(cell);
    first = reconstructor->reconstruct_blind(orig.subspan(start, sps), 0,
                                             link.enodeb.enable_pbch,
                                             link.enodeb.sync_boost_db);
  }
  if (cell.cell_id() != truth_cell.cell_id() || (start + cut) % frame != 0) {
    result.violation("cold start (seed " + std::to_string(seed) + ", cut " +
                     std::to_string(cut) + ") confirmed cell " +
                     std::to_string(cell.cell_id()) + " at stream sample " +
                     std::to_string(start) + ", want cell " +
                     std::to_string(truth_cell.cell_id()) +
                     " on a frame boundary");
    return -1.0;
  }
  core::StreamingReceiver receiver(receiver_config(cell, link));

  // The UE numbers subframes from its acquired frame: generated subframe
  // `first_truth` + j. A retry may land on SFN 1, whose PBCH the UE
  // rebuilds as SFN 0 (it does not read the MIB); only subframe 0 is
  // affected.
  const std::size_t first_truth = (start + cut) / sps;
  for (std::size_t j = 0; start + (j + 1) * sps <= orig.size(); ++j) {
    const auto rec =
        j == 0 ? first
               : reconstructor->reconstruct_blind(
                     orig.subspan(start + j * sps, sps), j,
                     link.enodeb.enable_pbch, link.enodeb.sync_boost_db);
    const cvec ambient = rec ? rec->samples : cvec(sps);
    for (const auto& ev :
         receiver.feed(bs.subspan(start + j * sps, sps), ambient)) {
      const SlotTruth& truth = truths[first_truth + ev.first_subframe_index];
      if (!ev.result.payload) continue;
      if (!truth.payload || *ev.result.payload != *truth.payload) {
        result.violation("cold start delivered a packet the tag did not "
                         "send");
        return -1.0;
      }
      return seconds_between(t0, Clock::now());
    }
  }
  result.violation("cold start (seed " + std::to_string(seed) +
                   ") found no CRC-clean packet");
  return -1.0;
}

/// The UE chain's per-layer metrics: cell-search spans of the traced cold
/// starts, rebuild and feed spans of the traced loop blocks in `traced`.
void set_ue_layer_metrics(const Tracer& tracer, const PhaseStats& traced,
                          Result& result) {
  const auto rebuild = tracer.totals("core.rebuild");
  const auto feed = tracer.totals("core.stream.feed");
  const auto sf = static_cast<double>(traced.subframes);
  result.set("lte.cellsearch.ms", 1e-3 * tracer.mean_us("lte.cellsearch"),
             "ms");
  result.set("core.rebuild.us_per_sf", tracer.mean_us("core.rebuild"), "us");
  result.set("core.rebuild.allocs_per_sf",
             static_cast<double>(rebuild.allocs) /
                 static_cast<double>(rebuild.count),
             "count");
  result.set("core.rebuild.dci_fail_ratio",
             static_cast<double>(traced.dci_failures) /
                 static_cast<double>(traced.rebuilds),
             "ratio");
  result.set("core.stream.feed_us_per_sf", 1e6 * feed.seconds / sf, "us");
  result.set("core.stream.feeds_per_sf", static_cast<double>(feed.count) / sf,
             "count");
  result.set("core.stream.allocs_per_sf",
             static_cast<double>(feed.allocs) / sf, "count");
}

}  // namespace

void measure_ue_layers(const core::LinkConfig& link, std::uint64_t seed,
                       Tracer& tracer, Result& result) {
  UeSpec spec;
  spec.bandwidth = link.enodeb.cell.bandwidth;
  spec.block_subframes = 40;
  UeLoop loop(spec, link, seed);
  Tracer untraced(false);
  PhaseStats warmup;
  loop.run(0.0, 1, untraced, false, warmup, result);
  for (std::size_t k = 0; k < kTracedColdStarts; ++k) {
    cold_start(link, dsp::derive_seed(seed, 100 + k), tracer, result);
  }
  PhaseStats traced;
  loop.run(0.0, 1, tracer, false, traced, result);
  set_ue_layer_metrics(tracer, traced, result);
  std::printf("  UE chain on seed %llu (%zu cold starts, %zu subframes): "
              "cell search %.2f ms, rebuild %.1f us and feed %.1f us per "
              "subframe\n",
              static_cast<unsigned long long>(seed), kTracedColdStarts,
              traced.subframes, 1e-3 * tracer.mean_us("lte.cellsearch"),
              tracer.mean_us("core.rebuild"),
              tracer.mean_us("core.stream.feed"));
}

Result run_ue_workload(const Options& options, const UeSpec& spec,
                       Tracer& tracer) {
  Result result;
  Tracer untraced(false);

  core::ScenarioOptions so;
  so.bandwidth = spec.bandwidth;
  so.seed = options.seed;
  const core::LinkConfig link =
      core::make_scenario(core::Scene::kSmartHome, so);
  const lte::CellConfig& cell = link.enodeb.cell;
  UeLoop loop(spec, link, options.seed);
  std::printf("scene: smart home %s, %.0f ft / %.0f ft, a fresh radio "
              "draw per subframe, tag idle share %.2f, %zu-subframe "
              "blocks\n",
              lte::to_string(cell.bandwidth).c_str(),
              link.geometry.enb_tag_ft, link.geometry.tag_ue_ft, kIdleShare,
              spec.block_subframes);
  if (spec.ragged) {
    std::printf("backscatter band: ragged feeds, %zu..%zu samples "
                "(log-uniform), subframe = %zu samples\n",
                spec.min_chunk, spec.max_chunk, cell.samples_per_subframe());
  } else {
    std::printf("backscatter band: one feed per subframe (%zu samples)\n",
                cell.samples_per_subframe());
  }

  // Steady state: warm up (codec cache, buffers, every subframe phase),
  // then time rounds of kRoundSeconds, each after kColdStartsPerRound cold
  // starts (setup_s) that are kept with it. A traced run spends half its
  // time untraced, as one round after kTracedColdStarts cold starts.
  std::uint64_t cold_index = 0;
  PhaseStats warmup;
  loop.run(0.0, 2, untraced, false, warmup, result);
  const std::size_t rounds = options.trace ? 1 : round_count(options.seconds);
  const double round_s =
      (options.trace ? options.seconds / 2.0 : options.seconds) /
      static_cast<double>(rounds);
  std::vector<Round> timed;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    Round round;
    const std::size_t colds =
        options.trace ? kTracedColdStarts : kColdStartsPerRound;
    for (std::size_t k = 0; k < colds; ++k) {
      const double s = cold_start(
          link, dsp::derive_seed(options.seed, 100 + cold_index++), tracer,
          result);
      if (s >= 0.0) round.setup_s.push_back(s);
    }
    PhaseStats st;
    loop.run(round_s, 0, untraced, false, st, result);
    round.iq_s = 1e-3 * static_cast<double>(st.subframes);
    round.wall_s = st.wall_s;
    round.latency_ms = std::move(st.latency_ms);
    timed.push_back(std::move(round));
    sent += st.sent;
    delivered += st.delivered;
  }
  const Summary sum = summarize(timed);
  print_rounds(timed);
  const double realtime = sum.realtime_x;
  const double pdr = sent == 0 ? 0.0
                               : static_cast<double>(delivered) /
                                     static_cast<double>(sent);
  result.attempted = sent;
  std::printf("timed loop: %zu rounds, %.3f s of IQ in %.3f s, %llu packets "
              "sent, %llu delivered\n",
              timed.size(), sum.iq_s, sum.wall_s,
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(delivered));
  print_summary(sum, timed.size(), "packets", "cold starts");
  std::printf("  %-16s %10.4f      (%llu of %llu packets)\n", "pdr", pdr,
              static_cast<unsigned long long>(delivered),
              static_cast<unsigned long long>(sent));

  if (!options.trace) {
    result.set("realtime_x", realtime, "x");
    result.set("latency_p50_ms", sum.p50_ms, "ms");
    result.set("latency_p95_ms", sum.p95_ms, "ms");
    result.set("pdr", pdr, "ratio");
    result.set("setup_s", sum.setup_s, "s");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Traced phase: same stream, spans around every call, plus probes.
  PhaseStats traced;
  loop.run(options.seconds / 2.0, 0, tracer, true, traced, result);
  const double traced_realtime =
      1e-3 * static_cast<double>(traced.subframes) / traced.wall_s;
  const auto rebuild = tracer.totals("core.rebuild");
  const auto feed = tracer.totals("core.stream.feed");
  const auto step = tracer.totals("ue.step");
  const auto offset = tracer.totals("core.demod.offset_search");
  const auto crc = tracer.totals("core.demod.crc");

  set_ue_layer_metrics(tracer, traced, result);
  result.set("core.demod.offset_search_us_per_pkt",
             tracer.mean_us("core.demod.offset_search"), "us");
  result.set("core.demod.crc_us_per_pkt", tracer.mean_us("core.demod.crc"),
             "us");
  result.set("core.demod.preamble_found_ratio",
             static_cast<double>(traced.preamble_found) /
                 static_cast<double>(traced.sent),
             "ratio");
  result.set("core.demod.crc_ok_ratio",
             traced.preamble_found == 0
                 ? 0.0
                 : static_cast<double>(traced.delivered) /
                       static_cast<double>(traced.preamble_found),
             "ratio");
  result.set("trace.overhead", traced_realtime / realtime, "x");
  // One core and no drop pool.
  result.set("core.pool.efficiency", 0.0, "ratio");
  result.set("core.pool.consumer_wait_share", 0.0, "ratio");

  const double covered = rebuild.seconds + feed.seconds;
  std::printf("\ntraced phase: %zu subframes in %.3f s (realtime %.4fx vs "
              "%.4fx untraced, trace.overhead %.4f)\n",
              traced.subframes, traced.wall_s, traced_realtime, realtime,
              traced_realtime / realtime);
  std::printf("  %-26s %8s %12s %12s %8s\n", "span", "calls", "total ms",
              "self ms", "share");
  const auto row = [&](const char* name, const Tracer::Totals& t,
                       double self_s) {
    std::printf("  %-26s %8llu %12.3f %12.3f %7.1f%%\n", name,
                static_cast<unsigned long long>(t.count), 1e3 * t.seconds,
                1e3 * self_s, 100.0 * self_s / traced.wall_s);
  };
  row("ue.step (loop body)", step, step.seconds - covered);
  row("core.rebuild", rebuild, rebuild.seconds);
  row("core.stream.feed", feed, feed.seconds);
  std::printf("  rebuild + feed self time = %.1f%% of the timed loop "
              "(block overhead outside steps: %.1f%%)\n",
              100.0 * covered / traced.wall_s,
              100.0 * (traced.wall_s - step.seconds) / traced.wall_s);
  std::printf("  probes outside the loop: offset search %llu calls, CRC "
              "%llu calls, %llu disagreements with packet events\n",
              static_cast<unsigned long long>(offset.count),
              static_cast<unsigned long long>(crc.count),
              static_cast<unsigned long long>(traced.probe_mismatches));
  std::printf("  allocations: %.1f per rebuild, %.2f per subframe in "
              "feed()\n",
              static_cast<double>(rebuild.allocs) /
                  static_cast<double>(rebuild.count),
              static_cast<double>(feed.allocs) /
                  static_cast<double>(traced.subframes));

  // The sweep's per-drop calls on this workload's scene (its input is
  // generated untimed with table noise, so they are not in the loop).
  measure_scene_layers(core::config_for_drop(link, 0), tracer, result);
  return result;
}

}  // namespace perfbench
