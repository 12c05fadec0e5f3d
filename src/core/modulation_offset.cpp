#include "core/modulation_offset.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/contracts.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd.hpp"

namespace lscatter::core {

using dsp::cf32;
using dsp::cf64;

namespace {

/// Per-thread search scratch: the ±1 preamble's spectrum for one
/// (pattern bytes, transform length) key, plus the span, prefix-sum and
/// bound buffers, grown to the largest search seen and then reused — the
/// steady state allocates nothing (same idiom as dsp's corr_scratch()).
struct OffsetScratch {
  std::vector<std::uint8_t> pattern;  // key: pattern bytes ...
  const dsp::FftPlan* plan = nullptr;  // ... and the transform length
  std::vector<cf64> spectrum;          // conj(FFT(±1 pattern, zero-padded))
  std::vector<cf64> work;              // products -> their correlation
  std::vector<double> prefix;          // prefix[i] = sum_{k<i} |z_k|
  std::vector<double> upper;           // per-offset metric upper bound
};

OffsetScratch& offset_scratch() {
  thread_local OffsetScratch s;
  return s;
}

/// Point the scratch at the spectrum of `pattern` zero-padded to `len`
/// points, rebuilding it only when the key changes.
void use_preamble_spectrum(OffsetScratch& s,
                           std::span<const std::uint8_t> pattern,
                           std::size_t len) {
  if (s.plan != nullptr && s.plan->size() == len &&
      std::equal(pattern.begin(), pattern.end(), s.pattern.begin(),
                 s.pattern.end())) {
    return;
  }
  s.plan = nullptr;  // no valid key until the rebuild completes
  const dsp::FftPlan& plan = dsp::cached_fft_plan(len);
  s.pattern.assign(pattern.begin(), pattern.end());
  s.spectrum.assign(len, cf64{});
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    s.spectrum[i] = cf64{pattern[i] != 0 ? 1.0 : -1.0, 0.0};
  }
  plan.forward_inplace64(s.spectrum);
  // Correlation multiplies by the conjugate spectrum.
  for (cf64& v : s.spectrum) v = std::conj(v);
  s.plan = &plan;
}

}  // namespace

std::optional<OffsetResult> find_modulation_offset(
    std::span<const cf32> z, std::span<const std::uint8_t> pattern,
    std::ptrdiff_t nominal_start, const OffsetSearch& search) {
  const std::size_t n = pattern.size();
  LSCATTER_EXPECT(n > 0, "offset search needs a non-empty pattern");
  LSCATTER_EXPECT(z.size() >= n,
                  "product vector must cover the pattern");

  // Window starts tried: nominal ± range, clipped so the pattern stays
  // inside z. The search reads exactly z[first, last + n).
  const auto range = static_cast<std::ptrdiff_t>(search.range_units);
  const std::ptrdiff_t first =
      std::max<std::ptrdiff_t>(0, nominal_start - range);
  const std::ptrdiff_t last = std::min(
      static_cast<std::ptrdiff_t>(z.size() - n), nominal_start + range);
  if (first > last) return std::nullopt;
  const auto lags = static_cast<std::size_t>(last - first + 1);
  const std::size_t m = lags + n - 1;
  const std::size_t len = dsp::next_power_of_two(m);

  OffsetScratch& s = offset_scratch();
  use_preamble_spectrum(s, pattern, len);
  if (s.work.size() < len) s.work.resize(len);
  if (s.prefix.size() < m + 1) s.prefix.resize(m + 1);
  if (s.upper.size() < lags) s.upper.resize(lags);

  // Widen the span to cf64 and take the prefix sums of |z| in one pass.
  const cf32* zs = z.data() + first;
  double sum_sq = 0.0;
  double sum_abs = 0.0;
  s.prefix[0] = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double r = zs[i].real();
    const double q = zs[i].imag();
    s.work[i] = cf64{r, q};
    sum_sq += r * r + q * q;
    sum_abs += std::sqrt(r * r + q * q);
    s.prefix[i + 1] = sum_abs;
  }
  // A NaN or ±inf product makes sum_sq non-finite (finite cf32 products
  // cannot overflow it) and would reach every lag of the correlation.
  if (!std::isfinite(sum_sq)) return std::nullopt;
  std::fill(s.work.begin() + static_cast<std::ptrdiff_t>(m),
            s.work.begin() + static_cast<std::ptrdiff_t>(len), cf64{});

  // c[j] = sum_i sgn(pattern_i) z[first + j + i], one FFT product.
  const std::span<cf64> work(s.work.data(), len);
  s.plan->forward_inplace64(work);
  dsp::simd_kernels().cmul64(work.data(), s.spectrum.data(), len);
  s.plan->inverse_inplace64(work);

  // Error bounds (DESIGN.md §16), each doubled for safety. u is the
  // unit roundoff of double, gamma(k) = k u / (1 - k u).
  constexpr double u = 0x1p-53;
  const auto gamma = [](double k) { return k * u / (1.0 - k * u); };
  const double nd = static_cast<double>(n);
  const double lend = static_cast<double>(len);
  // Radix-2 FFT, relative 2-norm error (Higham, Thm 24.2) with twiddles
  // accurate to mu = 16u; the spectral product adds sqrt(2) gamma(2).
  const double eta = 16.0 * u + gamma(4.0) * (std::sqrt(2.0) + 16.0 * u);
  const double eps_fft =
      std::log2(lend) * eta / (1.0 - std::log2(lend) * eta);
  const double eps_mul = std::sqrt(2.0) * gamma(2.0);
  // |spectrum_k| <= sum |pattern| = n plus its own FFT error; the cached
  // spectrum is the exact spectrum of a pattern within eps_fft sqrt(n)
  // (2-norm) of the true one, which Cauchy-Schwarz turns into a per-lag
  // error against ||z||_2.
  const double spec_max = nd + eps_fft * std::sqrt(lend * nd);
  const double err_corr =
      2.0 * std::sqrt(sum_sq) *
      (eps_fft * std::sqrt(nd) +
       spec_max * (eps_fft + eps_mul * (1.0 + eps_fft) +
                   eps_fft * (1.0 + eps_mul) * (1.0 + eps_fft)));
  // Recursive summation: a window sum from two prefixes is off by at most
  // gamma(m + 3) (prefix[end] + prefix[start]) + u |window|.
  const double err_prefix = 4.0 * (static_cast<double>(m) + 8.0) * u;
  // The direct metric's own rounding (pattern_sums, hypot, divide) moves
  // it at most 7 gamma(n + 4) from |c| / sum|z|, which never exceeds 1.
  const double err_direct = 16.0 * (nd + 4.0) * u;
  const double cap = 1.0 + err_direct;

  // Bound every offset's metric; the best lower bound is the bar. Metrics
  // are >= 0, so starting the bar at 0 is valid when nothing is bounded.
  // The (1 ± 4u) and (1 ± 16u) factors cover the rounding of the bound
  // arithmetic itself, |c| included.
  double best_lower = 0.0;
  for (std::size_t j = 0; j < lags; ++j) {
    const double end_prefix = s.prefix[j + n];
    if (end_prefix == 0.0) {
      // Every product up to this window's end is zero: the direct search
      // skips the window.
      s.upper[j] = -1.0;
      continue;
    }
    const double a = end_prefix - s.prefix[j];
    const double a_err = err_prefix * end_prefix;
    const double a_hi = (a + a_err) * (1.0 + 4.0 * u);
    const double a_lo = (a - a_err) * (1.0 - 4.0 * u);
    const cf64 c = work[j];
    const double mag = std::sqrt(c.real() * c.real() + c.imag() * c.imag());
    double hi = cap;
    if (a_lo > 0.0) {
      hi = std::min(cap,
                    (mag + err_corr) / a_lo * (1.0 + 16.0 * u) + err_direct);
      const double lo =
          (mag - err_corr) / a_hi * (1.0 - 16.0 * u) - err_direct;
      best_lower = std::max(best_lower, lo);
    }
    s.upper[j] = hi;
  }

  // Re-score every offset that could reach the bar with the direct
  // kernel, in ascending offset with the direct search's strict `>`. The
  // 2^-22 margin exceeds the float spacing below 2, so an offset left out
  // rounds to a float metric strictly below the best.
  const double bar = best_lower - 0x1p-22;
  OffsetResult best;
  bool found = false;
  const dsp::SimdKernels& k = dsp::simd_kernels();
  for (std::size_t j = 0; j < lags; ++j) {
    if (s.upper[j] < bar) continue;
    const std::ptrdiff_t start = first + static_cast<std::ptrdiff_t>(j);
    // The ±1-signed Eq. 7 correlation Σ sgn(pattern)·v rewrites as
    // 2·(sum over pattern==1) − (sum over all), which the pattern_sums
    // kernel computes in one pass along with Σ|v|.
    double sel_r = 0.0, sel_i = 0.0;
    double all_r = 0.0, all_i = 0.0;
    double abs_sum = 0.0;
    k.pattern_sums(z.data() + start, pattern.data(), n, &sel_r, &sel_i,
                   &all_r, &all_i, &abs_sum);
    const double acc_r = 2.0 * sel_r - all_r;
    const double acc_i = 2.0 * sel_i - all_i;
    if (abs_sum <= 0.0) continue;
    const float metric =
        static_cast<float>(std::hypot(acc_r, acc_i) / abs_sum);
    if (!found || metric > best.metric) {
      found = true;
      best.metric = metric;
      best.offset_units = start - nominal_start;
      best.gain = cf32{static_cast<float>(acc_r), static_cast<float>(acc_i)};
    }
  }
  if (!found || !(best.metric >= search.detect_threshold)) {
    return std::nullopt;
  }
  return best;
}

}  // namespace lscatter::core
