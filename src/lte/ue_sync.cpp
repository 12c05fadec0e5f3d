#include "lte/ue_sync.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/simd.hpp"
#include "lte/ofdm.hpp"
#include "lte/sequences.hpp"
#include "lte/signal_map.hpp"
#include "obs/obs.hpp"

namespace lscatter::lte {

using dsp::cf32;
using dsp::cf64;
using dsp::cvec;

namespace {

/// The narrow band runs the 1.4 MHz numerology: 1.92 MS/s, 128-point
/// symbols and a 9-sample normal CP.
constexpr std::size_t kNarrowFft = 128;
constexpr std::size_t kNarrowCp = 9;

/// Channelizer length in taps per unit of decimation (8·D + 1 taps).
constexpr std::size_t kTapsPerDecimation = 8;

using SyncBins = std::array<cf32, kSyncSubcarriers>;

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

/// Signed subcarrier offset from DC of sync-band element n: -31..-1,
/// then 1..31 (DC carries nothing).
double sync_frequency(std::size_t n) {
  return static_cast<double>(n) - (n < kSyncSubcarriers / 2 ? 31.0 : 30.0);
}

/// Decimate `x` by `d` through the symmetric lowpass `taps`: out[j] is the
/// filtered sample centered on x[j·d], so the filter adds no delay to
/// undo. Near the buffer edges the taps that fall outside are dropped, as
/// if the buffer were zero-padded, which keeps the narrow band exactly as
/// long as the buffer (in units of D).
void channelize(std::span<const cf32> x, std::span<const cf32> taps,
                std::size_t d, std::span<cf32> out) {
  const std::size_t g = (taps.size() - 1) / 2;
  const dsp::SimdKernels& kernels = dsp::simd_kernels();
  for (std::size_t j = 0; j < out.size(); ++j) {
    const std::size_t c = j * d;
    const std::size_t lo = c > g ? c - g : 0;
    const std::size_t hi = std::min(c + g + 1, x.size());
    double ar = 0.0;
    double ai = 0.0;
    kernels.corr_mac(x.data() + lo, taps.data() + (lo + g - c), hi - lo, &ar,
                     &ai);
    out[j] = cf32{static_cast<float>(ar), static_cast<float>(ai)};
  }
}

/// Sync-band bins, in subcarrier order, of the K-point FFT of
/// samples[start, start + K).
void sync_bins(const CellConfig& cfg, std::span<const cf32> samples,
               std::size_t start, SyncBins& out) {
  const std::size_t k = cfg.fft_size();
  thread_local cvec window;
  window.assign(samples.begin() + static_cast<std::ptrdiff_t>(start),
                samples.begin() + static_cast<std::ptrdiff_t>(start + k));
  dsp::cached_fft_plan(k).forward_inplace(window);
  const std::size_t first = sync_band_first_subcarrier(cfg);
  for (std::size_t n = 0; n < kSyncSubcarriers; ++n) {
    out[n] = window[subcarrier_to_bin(first + n, cfg.n_subcarriers(), k)];
  }
}

/// Where a K-point window starts relative to the useful part of the PSS
/// symbol whose sync bins it holds, in samples (positive = late). A
/// window d samples late rotates the bin at subcarrier offset f by
/// e^{j2π·f·d/K}, so d is K/2π times the phase slope of rx·conj(pss)
/// across the band. The slope comes from adjacent-bin products first
/// (unambiguous for |d| < K/2), then from a least-squares fit of the
/// phase that slope leaves, weighted by bin power.
double timing_offset(const SyncBins& rx, const SyncBins& pss, std::size_t k) {
  std::array<cf64, kSyncSubcarriers> z;
  for (std::size_t n = 0; n < kSyncSubcarriers; ++n) {
    z[n] = cf64{rx[n].real(), rx[n].imag()} *
           std::conj(cf64{pss[n].real(), pss[n].imag()});
  }
  cf64 adjacent{};
  for (std::size_t n = 1; n < kSyncSubcarriers; ++n) {
    if (n != kSyncSubcarriers / 2) adjacent += z[n] * std::conj(z[n - 1]);
  }
  const double coarse = std::arg(adjacent);
  cf64 common{};
  for (std::size_t n = 0; n < kSyncSubcarriers; ++n) {
    z[n] *= std::polar(1.0, -coarse * sync_frequency(n));
    common += z[n];
  }
  double sw = 0.0;
  double swf = 0.0;
  double swp = 0.0;
  double swff = 0.0;
  double swfp = 0.0;
  for (std::size_t n = 0; n < kSyncSubcarriers; ++n) {
    const double w = std::norm(z[n]);
    const double f = sync_frequency(n);
    const double p = std::arg(z[n] * std::conj(common));
    sw += w;
    swf += w * f;
    swp += w * p;
    swff += w * f * f;
    swfp += w * f * p;
  }
  const double det = sw * swff - swf * swf;
  const double fine = det > 0.0 ? (sw * swfp - swf * swp) / det : 0.0;
  return (coarse + fine) * static_cast<double>(k) / dsp::kTwoPi;
}

/// Exact PSS useful start near the cell-rate lag `lag`, or nullopt when
/// the timing does not settle inside the buffer. Leaves the sync bins of
/// the PSS window it settled on in `pss_bins`.
std::optional<std::size_t> refine_timing(const CellConfig& cfg,
                                         std::span<const cf32> samples,
                                         std::size_t lag, std::uint8_t n_id_2,
                                         SyncBins& pss_bins) {
  const std::size_t k = cfg.fft_size();
  const auto pss = pss_sequence(n_id_2);
  // A narrow-band peak's right neighbour is a full 128-sample window, so
  // its K = 128·D cell-rate window lies inside the buffer too.
  assert(lag + k <= samples.size());
  sync_bins(cfg, samples, lag, pss_bins);
  const double late = timing_offset(pss_bins, pss, k);
  if (!std::isfinite(late)) return std::nullopt;
  // The refined PSS must keep its SSS and itself inside the buffer, the
  // same rule the narrow-band peaks obey.
  const double start = static_cast<double>(lag) - std::round(late);
  if (start < static_cast<double>(k + cfg.cp_samples()) ||
      start + static_cast<double>(k) > static_cast<double>(samples.size())) {
    return std::nullopt;
  }
  const auto refined = static_cast<std::size_t>(start);
  sync_bins(cfg, samples, refined, pss_bins);
  if (!(std::abs(timing_offset(pss_bins, pss, k)) < 0.5)) return std::nullopt;
  return refined;
}

}  // namespace

CellSearcher::CellSearcher(const CellConfig& cfg)
    : cfg_(cfg), decimation_(cfg.fft_size() / kNarrowFft) {
  CellConfig narrow;
  narrow.bandwidth = Bandwidth::kMHz1_4;
  for (std::uint8_t id2 = 0; id2 < 3; ++id2) {
    replicas_[id2] = sync_replica(cfg, pss_sequence(id2));
    narrow_replicas_[id2] = sync_replica(narrow, pss_sequence(id2));
  }
  if (decimation_ > 1) {
    // -6 dB at the narrow band's Nyquist edge (0.96 MHz). 8·D + 1 Hamming
    // taps make the transition ~0.79 MHz wide around it, so the 62 PSS
    // subcarriers (±0.47 MHz) pass flat and everything from 1.45 MHz up,
    // which decimation would fold onto them, lies in the ~53 dB stopband.
    const dsp::fvec taps =
        dsp::design_lowpass(0.5 / static_cast<double>(decimation_),
                            kTapsPerDecimation * decimation_ + 1);
    lowpass_.assign(taps.begin(), taps.end());
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

  // Channelize the center of the band down to 1.92 MS/s (at 1.4 MHz the
  // cell already runs there): narrow sample j is cell sample j·D.
  std::span<const cf32> narrow = samples;
  if (decimation_ > 1) {
    thread_local cvec narrow_buffer;
    const std::size_t len = (samples.size() + decimation_ - 1) / decimation_;
    if (narrow_buffer.size() < len) narrow_buffer.resize(len);
    const std::span<cf32> out(narrow_buffer.data(), len);
    channelize(samples, lowpass_, decimation_, out);
    narrow = out;
  }

  // The 1.4 MHz matched-filter bank on the narrow band: overlap-save FFT
  // correlation of all three PSS replicas, each segment's forward FFT
  // shared across the bank (DESIGN.md §10).
  const std::size_t lags = narrow.size() - kNarrowFft + 1;
  thread_local dsp::fvec metrics;
  if (metrics.size() < 3 * lags) metrics.resize(3 * lags);
  const std::array<std::span<const cf32>, 3> patterns{
      std::span<const cf32>(narrow_replicas_[0]),
      std::span<const cf32>(narrow_replicas_[1]),
      std::span<const cf32>(narrow_replicas_[2])};
  const std::array<std::span<float>, 3> outs{
      std::span<float>(metrics.data(), lags),
      std::span<float>(metrics.data() + lags, lags),
      std::span<float>(metrics.data() + 2 * lags, lags)};
  dsp::fast_normalized_correlation_batch_into(narrow, patterns, outs);
  // The SSS sits one symbol earlier: its useful part starts one (K + CP)
  // before the PSS useful start. Only lags whose SSS lies inside the
  // buffer can name the cell and the frame, and only a lag with both
  // neighbours inside and no higher is a peak rather than the shoulder of
  // one the buffer edge cut off. A zero metric (silence) is no peak.
  const std::size_t first_lag = kNarrowFft + kNarrowCp;
  if (lags < first_lag + 2) return std::nullopt;
  struct Peak {
    float metric;
    std::uint8_t n_id_2;
    std::size_t lag;
  };
  thread_local std::vector<Peak> peaks;
  peaks.clear();
  for (std::uint8_t id2 = 0; id2 < 3; ++id2) {
    const std::span<const float> m = outs[id2];
    for (std::size_t l = first_lag; l + 1 < lags; ++l) {
      if (m[l] >= min_metric && m[l] > 0.0f && m[l] >= m[l - 1] &&
          m[l] >= m[l + 1]) {
        peaks.push_back(Peak{m[l], id2, l});
      }
    }
  }
  if (peaks.empty()) {
    LSCATTER_OBS_COUNTER_INC("lte.cellsearch.pss_below_threshold");
    return std::nullopt;
  }
  LSCATTER_OBS_COUNTER_INC("lte.cellsearch.pss_found");
  std::sort(peaks.begin(), peaks.end(), [](const Peak& a, const Peak& b) {
    if (a.metric != b.metric) return a.metric > b.metric;
    if (a.n_id_2 != b.n_id_2) return a.n_id_2 < b.n_id_2;
    return a.lag < b.lag;
  });

  // Best peak first: refine it to the exact cell-rate sample, or move on
  // to the next one when its timing does not settle inside the buffer.
  CellSearchResult best;
  SyncBins pss_bins;
  std::optional<std::size_t> start;
  for (const Peak& p : peaks) {
    start = refine_timing(cfg_, samples, p.lag * decimation_, p.n_id_2,
                          pss_bins);
    if (start) {
      best.pss_metric = p.metric;
      best.n_id_2 = p.n_id_2;
      best.pss_useful_start = *start;
      break;
    }
    LSCATTER_OBS_COUNTER_INC("lte.cellsearch.refine_rejected");
  }
  if (!start) return std::nullopt;

  // Equalize the SSS by the PSS channel estimate (they're adjacent in time
  // and share subcarriers): H ≈ rx_pss / tx_pss. For speed just correlate
  // coherently against all candidates; the channel phase is common.
  SyncBins sss_rx;
  sync_bins(cfg_, samples, best.pss_useful_start - k - cfg_.cp_samples(),
            sss_rx);
  const auto pss_tx = pss_sequence(best.n_id_2);
  SyncBins equalized;
  for (std::size_t n = 0; n < kSyncSubcarriers; ++n) {
    const cf32 h = pss_bins[n] * std::conj(pss_tx[n]);
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
