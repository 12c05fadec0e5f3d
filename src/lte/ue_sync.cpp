#include "lte/ue_sync.hpp"

#include <array>
#include <cassert>
#include <cmath>

#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "lte/ofdm.hpp"
#include "lte/sequences.hpp"
#include "lte/signal_map.hpp"
#include "obs/obs.hpp"

namespace lscatter::lte {

using dsp::cf32;
using dsp::cvec;

namespace {

// Frequency-domain sequence -> time-domain useful symbol at the cell rate.
cvec sync_replica(const CellConfig& cfg, std::span<const cf32> d) {
  const std::size_t k = cfg.fft_size();
  const std::size_t n_sc = cfg.n_subcarriers();
  const std::size_t first = sync_band_first_subcarrier(cfg);
  cvec bins(k, cf32{});
  for (std::size_t n = 0; n < d.size(); ++n) {
    bins[subcarrier_to_bin(first + n, n_sc, k)] = d[n];
  }
  cvec t = dsp::ifft(bins);
  dsp::normalize_power(t);
  return t;
}

}  // namespace

CellSearcher::CellSearcher(const CellConfig& cfg) : cfg_(cfg) {
  for (std::uint8_t id2 = 0; id2 < 3; ++id2) {
    replicas_[id2] = sync_replica(cfg, pss_sequence(id2));
  }
}

const cvec& CellSearcher::pss_replica(std::uint8_t n_id_2) const {
  assert(n_id_2 < 3);
  return replicas_[n_id_2];
}

std::optional<CellSearchResult> CellSearcher::search(
    std::span<const cf32> samples, float min_metric) const {
  LSCATTER_OBS_SPAN("lte.cellsearch.search");
  LSCATTER_OBS_COUNTER_INC("lte.cellsearch.searches");
  const std::size_t k = cfg_.fft_size();
  if (samples.size() < k + 1) return std::nullopt;

  CellSearchResult best;
  // Overlap-save FFT correlation of all three PSS replicas as one
  // matched-filter bank: each segment's forward FFT is shared across the
  // bank (the replica is FFT-size long, so the direct kernel's O(N·K)
  // dominated the whole search before — DESIGN.md §10).
  const std::size_t lags = samples.size() - k + 1;
  thread_local dsp::fvec metrics;
  if (metrics.size() < 3 * lags) metrics.resize(3 * lags);
  const std::array<std::span<const cf32>, 3> patterns{
      std::span<const cf32>(replicas_[0]),
      std::span<const cf32>(replicas_[1]),
      std::span<const cf32>(replicas_[2])};
  const std::array<std::span<float>, 3> outs{
      std::span<float>(metrics.data(), lags),
      std::span<float>(metrics.data() + lags, lags),
      std::span<float>(metrics.data() + 2 * lags, lags)};
  dsp::fast_normalized_correlation_batch_into(samples, patterns, outs);
  // The SSS sits one symbol earlier: its useful part starts one (K + CP)
  // before the PSS useful start. Only lags whose SSS lies inside the
  // buffer can name the cell and the frame, and only a lag with both
  // neighbours inside and no higher is a peak rather than the shoulder of
  // one the buffer edge cut off (the PSS is 62 subcarriers wide, so at
  // 20 MHz its peak spans tens of lags).
  const std::size_t cp = cfg_.cp_samples();
  const std::size_t first_lag = k + cp;
  if (lags < first_lag + 2) return std::nullopt;
  for (std::uint8_t id2 = 0; id2 < 3; ++id2) {
    const std::span<const float> m = outs[id2];
    for (std::size_t l = first_lag; l + 1 < lags; ++l) {
      if (m[l] > best.pss_metric && m[l] >= m[l - 1] && m[l] >= m[l + 1]) {
        best.pss_metric = m[l];
        best.n_id_2 = id2;
        best.pss_useful_start = l;
      }
    }
  }
  if (best.pss_metric < min_metric) {
    LSCATTER_OBS_COUNTER_INC("lte.cellsearch.pss_below_threshold");
    return std::nullopt;
  }
  LSCATTER_OBS_COUNTER_INC("lte.cellsearch.pss_found");

  const std::size_t sss_start = best.pss_useful_start - k - cp;
  cvec sss_bins(samples.begin() + static_cast<std::ptrdiff_t>(sss_start),
                samples.begin() + static_cast<std::ptrdiff_t>(sss_start + k));
  sss_bins = dsp::fft(sss_bins);

  const std::size_t first = sync_band_first_subcarrier(cfg_);
  cvec sss_rx(kSyncSubcarriers);
  for (std::size_t n = 0; n < kSyncSubcarriers; ++n) {
    sss_rx[n] = sss_bins[subcarrier_to_bin(first + n, cfg_.n_subcarriers(),
                                           k)];
  }

  // Equalize the SSS by the PSS channel estimate (they're adjacent in time
  // and share subcarriers): H ≈ rx_pss / tx_pss. For speed just correlate
  // coherently against all candidates; the channel phase is common.
  cvec pss_bins(
      samples.begin() + static_cast<std::ptrdiff_t>(best.pss_useful_start),
      samples.begin() +
          static_cast<std::ptrdiff_t>(best.pss_useful_start + k));
  pss_bins = dsp::fft(pss_bins);
  const auto pss_tx = pss_sequence(best.n_id_2);
  cvec equalized(kSyncSubcarriers);
  for (std::size_t n = 0; n < kSyncSubcarriers; ++n) {
    const cf32 h = pss_bins[subcarrier_to_bin(first + n,
                                              cfg_.n_subcarriers(), k)] *
                   std::conj(pss_tx[n]);
    equalized[n] = sss_rx[n] * std::conj(h);
  }

  float best_sss = -1.0f;
  std::uint16_t best_id1 = 0;
  bool best_sf5 = false;
  for (std::uint16_t id1 = 0; id1 < 168; ++id1) {
    for (const bool sf5 : {false, true}) {
      const auto cand = sss_sequence(id1, best.n_id_2, sf5);
      const cf32 corr = dsp::inner_product(equalized, cand);
      const float m = std::abs(corr);
      if (m > best_sss) {
        best_sss = m;
        best_id1 = id1;
        best_sf5 = sf5;
      }
    }
  }
  const double norm = std::sqrt(dsp::energy(equalized) *
                                static_cast<double>(kSyncSubcarriers));
  best.sss_metric = norm > 0.0
                        ? static_cast<float>(best_sss / norm)
                        : 0.0f;
  best.n_id_1 = best_id1;
  best.found_in_subframe5 = best_sf5;
  best.cell_id = static_cast<std::uint16_t>(3 * best_id1 + best.n_id_2);

  // Frame start: PSS useful part begins at
  //   frame_start + offset(symbol 6 of subframe 0 or 5) + cp
  const std::size_t sym6 = symbol_offset_in_subframe(cfg_, kPssSymbolIndex);
  const std::size_t pss_off =
      sym6 + cfg_.cp_samples() +
      (best_sf5 ? 5 * cfg_.samples_per_subframe() : 0);
  const std::size_t frame_len = cfg_.samples_per_frame();
  best.frame_start =
      (best.pss_useful_start + frame_len - (pss_off % frame_len)) %
      frame_len;
  return best;
}

}  // namespace lscatter::lte
