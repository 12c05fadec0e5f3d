#include "baselines/lora_backscatter.hpp"

#include <cmath>

#include "channel/awgn.hpp"
#include "dsp/db.hpp"

namespace lscatter::baselines {

using dsp::cf32;
using dsp::cvec;

LoraBackscatterLink::LoraBackscatterLink(const LoraBackscatterConfig& config)
    : config_(config), phy_(config.phy), rng_(config.seed, 0x10ca10caULL) {}

double LoraBackscatterLink::instantaneous_rate_bps() const {
  return 1.0 / config_.phy.symbol_duration_s();
}

core::LinkMetrics LoraBackscatterLink::run_burst(std::size_t n_bits) {
  dsp::Rng drop_rng = rng_.fork();
  dsp::Rng noise_rng = rng_.fork();
  const dsp::Hz f{config_.phy.carrier_hz};

  const dsp::Db pl1 = config_.pathloss.sample_db(
      dsp::feet_to_meters(config_.enb_tag_ft), f, drop_rng);
  const dsp::Db pl2 = config_.pathloss.sample_db(
      dsp::feet_to_meters(config_.tag_ue_ft), f, drop_rng);
  const dsp::Dbm rx_dbm = config_.budget.backscatter_rx_dbm(pl1, pl2);
  const double noise_mw = dsp::to_mw(channel::noise_floor_dbm(
      dsp::Hz{config_.phy.bandwidth_hz}, config_.budget.noise_figure_db));
  const float amp = static_cast<float>(channel::amplitude(rx_dbm));

  const auto bits = rng_.bits(n_bits);
  const std::size_t n = config_.phy.chips_per_symbol();

  core::LinkMetrics m;
  m.bits_sent = n_bits;
  m.packets_sent = 1;
  m.packets_detected = 1;
  m.elapsed_s =
      static_cast<double>(n_bits) * config_.phy.symbol_duration_s();

  // OOK per chirp: bit 1 -> reflected chirp present, bit 0 -> absent.
  // Detection: dechirp-FFT peak vs. energy threshold.
  cvec rx(n);
  const cvec chirp = phy_.modulate_symbol(0);
  double peak_ref = 0.0;
  {
    // Noise-free reference peak for the threshold.
    for (std::size_t k = 0; k < n; ++k) rx[k] = amp * chirp[k];
    cvec d(n);
    for (std::size_t k = 0; k < n; ++k) d[k] = rx[k] * std::conj(chirp[k]);
    peak_ref = std::abs(dsp::sum(d));
  }
  const double threshold = 0.5 * peak_ref;

  for (std::size_t i = 0; i < n_bits; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      rx[k] = bits[i] ? amp * chirp[k] : cf32{};
    }
    channel::add_awgn(rx, noise_mw, noise_rng);
    cvec d(n);
    for (std::size_t k = 0; k < n; ++k) d[k] = rx[k] * std::conj(chirp[k]);
    const double peak = std::abs(dsp::sum(d));
    const std::uint8_t decided = peak > threshold ? 1 : 0;
    if (decided != bits[i]) ++m.bit_errors;
  }
  const std::size_t correct = n_bits - m.bit_errors;
  m.bits_delivered = correct > m.bit_errors ? correct - m.bit_errors : 0;
  if (m.bit_errors == 0) {
    m.packets_ok = 1;
    m.bits_crc_ok = n_bits;
  }
  return m;
}

double LoraBackscatterLink::hourly_throughput_bps(double occupancy,
                                                  std::size_t probe_bits) {
  const core::LinkMetrics m = run_burst(probe_bits);
  const double eff = std::max(0.0, 1.0 - 2.0 * m.ber());
  return occupancy * instantaneous_rate_bps() * eff;
}

}  // namespace lscatter::baselines
