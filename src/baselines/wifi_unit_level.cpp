#include "baselines/wifi_unit_level.hpp"

#include <cmath>

#include "channel/awgn.hpp"
#include "core/modulation_offset.hpp"
#include "core/phase_offset.hpp"
#include "dsp/db.hpp"
#include "lte/sequences.hpp"

namespace lscatter::baselines {

using dsp::cf32;
using dsp::cvec;

namespace {
constexpr std::size_t kUnitsPerSymbol = 52;  // = used subcarriers
constexpr std::size_t kStartUnit =
    (WifiPhyConfig::kFftSize - kUnitsPerSymbol) / 2;  // 6
}  // namespace

WifiUnitLevelLink::WifiUnitLevelLink(const WifiUnitLevelConfig& config)
    : config_(config),
      phy_(config.phy),
      rng_(config.seed, 0xF00F00ULL),
      preamble_(lte::gold_sequence(0x1CEB00D & 0x7FFFFFFF,
                                   kUnitsPerSymbol)) {}

double WifiUnitLevelLink::instantaneous_rate_bps() const {
  return static_cast<double>(kUnitsPerSymbol) /
         config_.phy.symbol_duration_s();
}

core::LinkMetrics WifiUnitLevelLink::run_burst(std::size_t n_symbols) {
  dsp::Rng drop_rng = rng_.fork();
  dsp::Rng noise_rng = rng_.fork();
  const dsp::Hz f{config_.phy.carrier_hz};

  const dsp::Db pl1 = config_.pathloss.sample_db(
      dsp::feet_to_meters(config_.enb_tag_ft), f, drop_rng);
  const dsp::Db pl2 = config_.pathloss.sample_db(
      dsp::feet_to_meters(config_.tag_ue_ft), f, drop_rng);
  const dsp::Dbm rx_dbm = config_.budget.backscatter_rx_dbm(pl1, pl2);
  const double noise_mw = dsp::to_mw(channel::noise_floor_dbm(
      dsp::Hz{16.6e6}, config_.budget.noise_figure_db));

  const double k = config_.rician_k_db.linear();
  const auto fade = [&]() -> cf32 {
    return cf32{static_cast<float>(std::sqrt(k / (k + 1.0))), 0.0f} +
           drop_rng.complex_normal(1.0 / (k + 1.0));
  };
  const cf32 gain = fade() * fade() *
                    static_cast<float>(channel::amplitude(rx_dbm));

  const cvec ambient = phy_.generate_burst(n_symbols, rng_);
  constexpr std::size_t kSps = WifiPhyConfig::samples_per_symbol();
  constexpr std::size_t kCp = WifiPhyConfig::kCpLen;

  // Tag pattern: preamble symbol then data symbols, units centered in
  // each useful window.
  const std::size_t n_data_bits = (n_symbols - 1) * kUnitsPerSymbol;
  const auto data_bits = rng_.bits(n_data_bits);
  std::vector<std::uint8_t> pattern(ambient.size(), 1);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    for (std::size_t u = 0; u < kUnitsPerSymbol; ++u) {
      const std::uint8_t bit =
          s == 0 ? preamble_[u]
                 : data_bits[(s - 1) * kUnitsPerSymbol + u];
      pattern[s * kSps + kCp + kStartUnit + u] = bit;
    }
  }

  // Scatter with the timing error, add noise.
  cvec rx(ambient.size());
  const auto err = config_.timing_error_units;
  for (std::size_t n = 0; n < rx.size(); ++n) {
    const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(n) - err;
    const bool one = (idx < 0 ||
                      idx >= static_cast<std::ptrdiff_t>(pattern.size()))
                         ? true
                         : pattern[static_cast<std::size_t>(idx)] != 0;
    rx[n] = gain * ambient[n] * (one ? 1.0f : -1.0f);
  }
  channel::add_awgn(rx, noise_mw, noise_rng);

  core::LinkMetrics m;
  m.bits_sent = n_data_bits;
  m.packets_sent = 1;
  m.elapsed_s =
      static_cast<double>(n_symbols) * config_.phy.symbol_duration_s();

  // Receiver: products on the preamble symbol, offset search, then
  // per-symbol slicing — the LScatter §3.3 pipeline on a 64-unit symbol.
  const auto products = [&](std::size_t s) {
    cvec z(WifiPhyConfig::kFftSize);
    for (std::size_t n = 0; n < z.size(); ++n) {
      const std::size_t i = s * kSps + kCp + n;
      z[n] = rx[i] * std::conj(ambient[i]);
    }
    return z;
  };

  core::OffsetSearch search;
  search.range_units = kStartUnit;  // +-6 units of slack
  const cvec z0 = products(0);
  const auto found =
      core::find_modulation_offset(z0, preamble_, kStartUnit, search);
  if (!found) {
    m.bit_errors = n_data_bits / 2;
    return m;
  }
  m.packets_detected = 1;

  for (std::size_t s = 1; s < n_symbols; ++s) {
    const cvec z = products(s);
    // Phase from the whole-symbol sum is biased by the data; use the
    // preamble gain (short bursts, static channel).
    const cf32 g = found->gain;
    const cf32 unit = std::conj(g) / std::abs(g);
    for (std::size_t u = 0; u < kUnitsPerSymbol; ++u) {
      const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(kStartUnit) +
                                 found->offset_units +
                                 static_cast<std::ptrdiff_t>(u);
      cf32 v{};
      if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(z.size())) {
        v = z[static_cast<std::size_t>(idx)] * unit;
      }
      const std::uint8_t decided = v.real() >= 0.0f ? 1 : 0;
      if (decided != data_bits[(s - 1) * kUnitsPerSymbol + u]) {
        ++m.bit_errors;
      }
    }
  }
  const std::size_t correct = m.bits_sent - m.bit_errors;
  m.bits_delivered = correct > m.bit_errors ? correct - m.bit_errors : 0;
  if (m.bit_errors == 0) {
    m.packets_ok = 1;
    m.bits_crc_ok = m.bits_sent;
  }
  return m;
}

double WifiUnitLevelLink::hourly_throughput_bps(double occupancy,
                                                std::size_t probe_symbols) {
  const core::LinkMetrics m = run_burst(probe_symbols);
  const double eff = std::max(0.0, 1.0 - 2.0 * m.ber());
  return occupancy * instantaneous_rate_bps() * eff;
}

}  // namespace lscatter::baselines
