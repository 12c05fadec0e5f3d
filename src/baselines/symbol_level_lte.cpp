#include "baselines/symbol_level_lte.hpp"

#include <cmath>

#include "channel/awgn.hpp"
#include "dsp/db.hpp"
#include "lte/ofdm.hpp"
#include "lte/signal_map.hpp"
#include "obs/obs.hpp"

namespace lscatter::baselines {

using dsp::cf32;
using dsp::cvec;

SymbolLevelLteLink::SymbolLevelLteLink(const SymbolLevelLteConfig& config)
    : config_(config),
      enodeb_(config.enodeb),
      rng_(config.seed, 0x5151515151ULL) {}

double SymbolLevelLteLink::instantaneous_rate_bps() const {
  // 14 symbols/ms; 2 of 10 subframes lose 2 symbols to PSS/SSS; 1 bit per
  // 2 symbols.
  const double symbols_per_s = (14.0 * 10.0 - 2.0 * 2.0) / 10.0 * 1000.0;
  return symbols_per_s / 2.0;
}

core::LinkMetrics SymbolLevelLteLink::run(std::size_t n_subframes) {
  LSCATTER_OBS_SPAN("baselines.symbol_level.run");
  LSCATTER_OBS_COUNTER_ADD("baselines.symbol_level.subframes", n_subframes);
  dsp::Rng drop_rng = rng_.fork();
  dsp::Rng noise_rng = rng_.fork();
  const auto& cell = config_.enodeb.cell;
  const dsp::Hz f{cell.carrier_hz};

  const dsp::Db pl1 = config_.pathloss.sample_db(
      dsp::feet_to_meters(config_.enb_tag_ft), f, drop_rng);
  const dsp::Db pl2 = config_.pathloss.sample_db(
      dsp::feet_to_meters(config_.tag_ue_ft), f, drop_rng);
  const dsp::Dbm rx_dbm = config_.budget.backscatter_rx_dbm(pl1, pl2);
  const dsp::Hz occupied =
      static_cast<double>(cell.n_subcarriers()) *
      dsp::Hz{lte::kSubcarrierSpacingHz};
  const double noise_mw = dsp::to_mw(channel::noise_floor_dbm(
      occupied, config_.budget.noise_figure_db));

  const auto draw_fade = [&]() -> cf32 {
    if (!config_.los) return drop_rng.complex_normal(1.0);
    const double k = config_.rician_k_db.linear();
    return cf32{static_cast<float>(std::sqrt(k / (k + 1.0))), 0.0f} +
           drop_rng.complex_normal(1.0 / (k + 1.0));
  };
  const cf32 gain = draw_fade() * draw_fade() *
                    static_cast<float>(channel::amplitude(rx_dbm));

  core::LinkMetrics m;
  m.elapsed_s = static_cast<double>(n_subframes) * 1e-3;

  // FreeRider-style codewords: one bit per *pair* of modulatable symbols —
  // the pair (s, s) carries '1', (s, -s) carries '0'. The UE integrates
  // r * conj(x) over each useful part and compares within the pair.
  bool pair_open = false;     // first symbol of the pair seen
  float ref_sign = 1.0f;
  cf32 ref_g{};
  std::uint8_t pending_bit = 1;

  cvec r(cell.fft_size());  // one symbol's received useful part
  for (std::size_t sf = 0; sf < n_subframes; ++sf) {
    const lte::SubframeTx tx = enodeb_.next_subframe();
    for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
      const bool sync_symbol =
          lte::is_sync_subframe(sf) &&
          (l == lte::kPssSymbolIndex || l == lte::kSssSymbolIndex);
      if (sync_symbol) continue;  // tag idles over PSS/SSS

      const std::size_t off = lte::symbol_offset_in_subframe(cell, l);
      const std::size_t cp = cell.cp_length(l % lte::kSymbolsPerSlot);
      const std::size_t k = cell.fft_size();

      float sign = 1.0f;
      if (pair_open) {
        pending_bit = static_cast<std::uint8_t>(rng_.next_u32() & 1u);
        sign = pending_bit ? ref_sign : -ref_sign;
      }

      // Integrate r * conj(x) over the useful part, with noise.
      for (std::size_t n = 0; n < k; ++n) {
        r[n] = gain * sign * tx.samples[off + cp + n];
      }
      channel::add_awgn(r, noise_mw, noise_rng);
      dsp::cf64 acc{};
      for (std::size_t n = 0; n < k; ++n) {
        const cf32 x = tx.samples[off + cp + n];
        acc += dsp::cf64{r[n].real(), r[n].imag()} *
               dsp::cf64{x.real(), -x.imag()};
      }
      const cf32 g{static_cast<float>(acc.real()),
                   static_cast<float>(acc.imag())};

      if (!pair_open) {
        pair_open = true;
        ref_sign = sign;
        ref_g = g;
        continue;
      }
      const cf32 d = g * std::conj(ref_g);
      const std::uint8_t decided = d.real() >= 0.0f ? 1 : 0;
      m.bits_sent += 1;
      if (decided != pending_bit) m.bit_errors += 1;
      pair_open = false;
    }
  }
  m.packets_sent = 1;
  m.packets_detected = 1;
  const std::size_t correct = m.bits_sent - m.bit_errors;
  m.bits_delivered =
      correct > m.bit_errors ? correct - m.bit_errors : 0;
  if (m.bit_errors == 0) {
    m.packets_ok = 1;
    m.bits_crc_ok = m.bits_sent;
  }
  return m;
}

}  // namespace lscatter::baselines
