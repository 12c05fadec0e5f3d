#include "core/link_simulator.hpp"

#include <cassert>
#include <cmath>

#include "channel/awgn.hpp"
#include "dsp/db.hpp"
#include "obs/obs.hpp"
#include "tag/modulator.hpp"

namespace lscatter::core {

using dsp::cf32;
using dsp::cvec;

void score_packet(const PacketDemodResult& res,
                  const std::vector<std::uint8_t>& payload,
                  std::size_t coded_bits, Fec fec, LinkMetrics& m) {
  m.packets_sent += 1;
  m.bits_sent += payload.size();
  if (!res.preamble_found) {
    m.bit_errors += payload.size() / 2;  // chance level
    return;
  }
  m.packets_detected += 1;

  const PacketCodec codec(coded_bits, fec);
  const auto plain = fec == Fec::kNone
                         ? codec.dewhiten(res.coded_bits)
                         : codec.decode_soft_bits(res.soft_bits);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (plain[i] != payload[i]) ++errors;
  }
  m.bit_errors += errors;

  const std::size_t correct = payload.size() - errors;
  m.bits_delivered += correct > errors ? correct - errors : 0;

  if (res.payload && *res.payload == payload) {
    m.packets_ok += 1;
    m.bits_crc_ok += payload.size();
  }
}

LinkSimulator::LinkSimulator(const LinkConfig& config)
    : config_(config),
      enodeb_(config.enodeb),
      controller_(config.enodeb.cell, config.schedule),
      demodulator_(config.enodeb.cell, config.schedule, config.search,
                   config.fec),
      reconstructor_(config.enodeb.cell),
      rng_(config.seed, 0xa02bdbf7bb3c0a7ULL) {}

double LinkSimulator::scheduled_phy_rate_bps() const {
  // Average payload bits per subframe over a full 10-subframe resync
  // period times the frame structure (sync subframes lose 2 symbols).
  const auto& cell = config_.enodeb.cell;
  const std::size_t n = cell.n_subcarriers();
  const std::size_t period =
      config_.schedule.resync_period_subframes;

  double bits = 0.0;
  const std::size_t horizon =
      std::max<std::size_t>(period * lte::kSubframesPerFrame, 20);
  for (std::size_t sf = 0; sf < horizon; ++sf) {
    if (controller_.is_listening_subframe(sf)) continue;
    const std::size_t symbols = controller_.modulatable_symbols(sf).size();
    if (symbols <= config_.schedule.preamble_symbols) continue;
    bits += static_cast<double>(
        (symbols - config_.schedule.preamble_symbols) * n);
  }
  return bits / (static_cast<double>(horizon) * 1e-3);
}

void LinkSimulator::draw_drop(dsp::Rng& rng) {
  drop_ = DropState{};
  const auto& env = config_.env;
  const auto& geo = config_.geometry;
  const dsp::Hz f{config_.enodeb.cell.carrier_hz};

  drop_.pl1_db = env.pathloss.sample_db(
      dsp::feet_to_meters(geo.enb_tag_ft), f, rng);
  drop_.pl2_db = env.pathloss.sample_db(
      dsp::feet_to_meters(geo.tag_ue_ft), f, rng);
  const dsp::Db pl_direct = env.pathloss.sample_db(
      dsp::feet_to_meters(geo.direct_ft()), f, rng);

  drop_.backscatter_rx_dbm =
      env.budget.backscatter_rx_dbm(drop_.pl1_db, drop_.pl2_db);
  drop_.direct_rx_dbm = env.budget.direct_rx_dbm(pl_direct);

  // Noise: thermal over the occupied bandwidth plus the adjacent-channel
  // residue of the (much stronger) direct LTE signal.
  const dsp::Hz occupied =
      static_cast<double>(config_.enodeb.cell.n_subcarriers()) *
      dsp::Hz{lte::kSubcarrierSpacingHz};
  const double thermal_mw = dsp::to_mw(
      channel::noise_floor_dbm(occupied, env.budget.noise_figure_db));
  const double leak_mw = dsp::to_mw(drop_.direct_rx_dbm - env.acir_db);
  drop_.noise_dbm = dsp::from_mw(thermal_mw + leak_mw);

  // Double-hop small-scale fading: product of two independent unit-power
  // scalars (flat within the band; see DESIGN.md).
  drop_.fade = channel::draw_flat_hop(env.fading, rng) *
               channel::draw_flat_hop(env.fading, rng);
  drop_.direct_fade = channel::draw_flat_hop(env.fading, rng);

  drop_.mean_snr_db = drop_.backscatter_rx_dbm - drop_.noise_dbm;
}

LinkMetrics LinkSimulator::run(std::size_t n_subframes) {
  LSCATTER_OBS_SPAN("core.link.run");
  LSCATTER_OBS_COUNTER_INC("core.link.drops");
  LSCATTER_OBS_COUNTER_ADD("core.link.subframes", n_subframes);
  dsp::Rng drop_rng = rng_.fork();
  dsp::Rng noise_rng = rng_.fork();
  dsp::Rng sync_rng = rng_.fork();
  dsp::Rng payload_rng = rng_.fork();
  draw_drop(drop_rng);

  const auto& cell = config_.enodeb.cell;
  const std::size_t sf_samples = cell.samples_per_subframe();
  const double amp_bs =
      channel::amplitude(drop_.backscatter_rx_dbm);
  const double noise_mw = dsp::to_mw(drop_.noise_dbm);

  // Tag RF gain: amplitude (budget already includes conversion loss) times
  // fade, plus the switching-delay phase, constant over the run.
  const double tag_phase = sync_rng.uniform(0.0, dsp::kTwoPi);
  const cf32 gain =
      drop_.fade *
      cf32{static_cast<float>(amp_bs * std::cos(tag_phase)),
           static_cast<float>(amp_bs * std::sin(tag_phase))};

  // Optional frequency-selective tag->UE hop: one TDL realization per
  // drop, unit average power (the link budget keeps the path loss).
  std::optional<channel::TdlChannel> selective;
  if (config_.env.frequency_selective) {
    selective.emplace(config_.env.fading,
                      dsp::Hz{config_.enodeb.cell.sample_rate_hz()},
                      drop_rng);
  }

  // Tag sync state.
  double sync_error_s = config_.sync.sample_error_s(sync_rng);
  double since_resync_s = 0.0;

  LinkMetrics metrics;
  metrics.elapsed_s = static_cast<double>(n_subframes) * 1e-3;

  const std::size_t packet_sfs = config_.schedule.packet_subframes;
  for (std::size_t sf0 = 0; sf0 + packet_sfs <= n_subframes;
       sf0 += packet_sfs) {
    // Gather the packet's subframes.
    cvec ambient;
    cvec rx;
    ambient.reserve(packet_sfs * sf_samples);
    rx.reserve(packet_sfs * sf_samples);

    const std::size_t capacity = controller_.packet_raw_bits(sf0);
    const bool sends_data = capacity > 32;

    std::vector<std::uint8_t> payload;
    std::vector<std::vector<std::uint8_t>> symbol_payloads;
    if (sends_data) {
      const PacketCodec codec(capacity, config_.fec);
      payload = payload_rng.bits(codec.payload_bits());
      symbol_payloads =
          split_bits(codec.encode(payload), controller_.bits_per_symbol());
    }

    bool first_of_packet = true;
    std::size_t payload_cursor = 0;
    for (std::size_t s = 0; s < packet_sfs; ++s) {
      const std::size_t sf = sf0 + s;
      lte::SubframeTx tx = enodeb_.next_subframe();

      // Resync bookkeeping: a listening subframe refreshes the error.
      if (controller_.is_listening_subframe(sf)) {
        sync_error_s = config_.sync.sample_error_s(sync_rng);
        since_resync_s = 0.0;
      }
      const double err_now =
          config_.sync.drifted_error_s(sync_error_s, since_resync_s);
      since_resync_s += 1e-3;

      // Tag plan for this subframe.
      std::vector<std::vector<std::uint8_t>> sf_payloads;
      if (sends_data) {
        const std::size_t mod_symbols =
            controller_.is_listening_subframe(sf)
                ? 0
                : controller_.modulatable_symbols(sf).size();
        std::size_t data_symbols = mod_symbols;
        if (first_of_packet && mod_symbols > 0) {
          data_symbols -= std::min<std::size_t>(
              config_.schedule.preamble_symbols, mod_symbols);
        }
        for (std::size_t i = 0;
             i < data_symbols && payload_cursor < symbol_payloads.size();
             ++i) {
          sf_payloads.push_back(symbol_payloads[payload_cursor++]);
        }
      }
      const tag::SubframePlan plan = controller_.plan_subframe(
          sf, first_of_packet && sends_data, sf_payloads);
      if (!plan.listening) first_of_packet = false;

      const auto pattern = tag::expand_to_units(
          cell, plan, config_.schedule.window_offset_units);
      const auto err_units = static_cast<std::ptrdiff_t>(
          std::llround(err_now * cell.sample_rate_hz()));
      cvec scattered =
          tag::apply_pattern(tx.samples, pattern, err_units, gain);
      if (selective) {
        scattered = selective->apply(scattered);
      }
      if (config_.env.ue_cfo_hz.value() != 0.0) {
        // Continuous phase ramp across the run (phase tracked in
        // cfo_phase_ so subframe boundaries stay continuous).
        const double step =
            dsp::kTwoPi * config_.env.ue_cfo_hz.value() /
            cell.sample_rate_hz();
        for (auto& v : scattered) {
          v *= cf32{static_cast<float>(std::cos(cfo_phase_)),
                    static_cast<float>(std::sin(cfo_phase_))};
          cfo_phase_ += step;
          if (cfo_phase_ > dsp::kTwoPi) cfo_phase_ -= dsp::kTwoPi;
        }
      }
      channel::add_awgn(scattered, noise_mw, noise_rng);

      if (config_.ambient == AmbientSource::kGenie) {
        ambient.insert(ambient.end(), tx.samples.begin(),
                       tx.samples.end());
      } else {
        // UE original-band receive chain: direct path + thermal noise,
        // then decode-and-regenerate.
        const float amp_d = static_cast<float>(
            channel::amplitude(drop_.direct_rx_dbm));
        cvec rx_direct(tx.samples.size());
        for (std::size_t n = 0; n < rx_direct.size(); ++n) {
          rx_direct[n] = drop_.direct_fade * amp_d * tx.samples[n];
        }
        const double thermal_mw = dsp::to_mw(channel::noise_floor_dbm(
            static_cast<double>(cell.n_subcarriers()) *
                dsp::Hz{lte::kSubcarrierSpacingHz},
            config_.env.budget.noise_figure_db));
        channel::add_awgn(rx_direct, thermal_mw, noise_rng);

        if (config_.ambient == AmbientSource::kBlind) {
          // Rebuilt straight into the ambient buffer. A lost DCI leaves
          // the subframe zero: no usable ambient reference.
          const std::size_t at = ambient.size();
          ambient.resize(at + tx.samples.size());
          const auto re_total = reconstructor_.reconstruct_blind_into(
              rx_direct, sf, config_.enodeb.enable_pbch,
              config_.enodeb.sync_boost_db,
              std::span<cf32>(ambient).subspan(at, tx.samples.size()));
          if (re_total) drop_.ambient_re_total += *re_total;
        } else {
          const ReconstructionResult rec = reconstructor_.reconstruct(
              rx_direct, tx, config_.enodeb.modulation);
          drop_.ambient_re_errors += rec.re_errors;
          drop_.ambient_re_total += rec.re_total;
          ambient.insert(ambient.end(), rec.samples.begin(),
                         rec.samples.end());
        }
      }
      rx.insert(rx.end(), scattered.begin(), scattered.end());
    }

    if (!sends_data) continue;
    score_packet(demodulator_.demodulate_packet(rx, ambient, sf0), payload,
                 capacity, config_.fec, metrics);
  }
  return metrics;
}

}  // namespace lscatter::core
