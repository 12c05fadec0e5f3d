#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd.hpp"

namespace lscatter::dsp {

namespace {

/// Below these sizes two FFT passes per block cost more than the direct
/// kernel; fast_correlate falls back.
constexpr std::size_t kFastMinPattern = 32;
constexpr std::size_t kFastMinLags = 32;

/// Per-thread overlap-save scratch: the frequency-domain kernel(s), one
/// segment buffer, and (batch path only) one product buffer, grown to
/// the largest FFT length / pattern bank seen and then reused (zero heap
/// allocations after warm-up).
struct CorrScratch {
  std::vector<cf64> kernel_fft;
  std::vector<cf64> seg;
  std::vector<cf64> prod;
};

CorrScratch& corr_scratch() {
  thread_local CorrScratch s;
  return s;
}

}  // namespace

cvec cross_correlate(std::span<const cf32> signal,
                     std::span<const cf32> pattern) {
  LSCATTER_EXPECT(!pattern.empty(), "correlation needs a non-empty pattern");
  LSCATTER_EXPECT(signal.size() >= pattern.size(),
                  "signal must be at least as long as the pattern");
  cvec out(signal.size() - pattern.size() + 1);
  cross_correlate_into(signal, pattern, out);
  return out;
}

void cross_correlate_into(std::span<const cf32> signal,
                          std::span<const cf32> pattern,
                          std::span<cf32> out) {
  LSCATTER_EXPECT(!pattern.empty(), "correlation needs a non-empty pattern");
  LSCATTER_EXPECT(signal.size() >= pattern.size(),
                  "signal must be at least as long as the pattern");
  const std::size_t lags = signal.size() - pattern.size() + 1;
  LSCATTER_EXPECT(out.size() == lags,
                  "output must hold exactly signal - pattern + 1 lags");
  // s * conj(p) per lag through the dispatched MAC kernel (double
  // accumulation in every tier; the scalar tier keeps the real-arithmetic
  // form that avoids __muldc3).
  const SimdKernels& k = simd_kernels();
  for (std::size_t d = 0; d < lags; ++d) {
    double ar = 0.0;
    double ai = 0.0;
    k.corr_mac(signal.data() + d, pattern.data(), pattern.size(), &ar, &ai);
    out[d] = cf32{static_cast<float>(ar), static_cast<float>(ai)};
  }
}

cvec fast_correlate(std::span<const cf32> signal,
                    std::span<const cf32> pattern) {
  LSCATTER_EXPECT(!pattern.empty(), "correlation needs a non-empty pattern");
  LSCATTER_EXPECT(signal.size() >= pattern.size(),
                  "signal must be at least as long as the pattern");
  cvec out(signal.size() - pattern.size() + 1);
  fast_correlate_into(signal, pattern, out);
  return out;
}

void fast_correlate_into(std::span<const cf32> signal,
                         std::span<const cf32> pattern,
                         std::span<cf32> out) {
  LSCATTER_EXPECT(!pattern.empty(), "correlation needs a non-empty pattern");
  LSCATTER_EXPECT(signal.size() >= pattern.size(),
                  "signal must be at least as long as the pattern");
  const std::size_t m = pattern.size();
  const std::size_t n = signal.size();
  const std::size_t lags = n - m + 1;
  LSCATTER_EXPECT(out.size() == lags,
                  "output must hold exactly signal - pattern + 1 lags");
  if (m < kFastMinPattern || lags < kFastMinLags) {
    cross_correlate_into(signal, pattern, out);
    return;
  }

  // Overlap-save. Correlation is convolution with the conjugated,
  // time-reversed pattern: with kernel k[j] = conj(p[m-1-j]),
  //   out[d] = (signal * k)[d + m - 1].
  // Each length-f circular block yields f - m + 1 valid linear outputs
  // (indices m-1 .. f-1). f = 4·m balances transform cost against the
  // fraction of each block that is usable.
  const std::size_t f = next_power_of_two(4 * m);
  const std::size_t step = f - m + 1;
  const FftPlan& plan = cached_fft_plan(f);

  CorrScratch& scratch = corr_scratch();
  if (scratch.kernel_fft.size() < f) scratch.kernel_fft.resize(f);
  if (scratch.seg.size() < f) scratch.seg.resize(f);
  const std::span<cf64> kfft(scratch.kernel_fft.data(), f);
  const std::span<cf64> seg(scratch.seg.data(), f);

  for (std::size_t j = 0; j < m; ++j) {
    const cf32 p = pattern[m - 1 - j];
    kfft[j] = cf64{p.real(), -p.imag()};
  }
  std::fill(kfft.begin() + static_cast<std::ptrdiff_t>(m), kfft.end(),
            cf64{});
  plan.forward_inplace64(kfft);

  for (std::size_t d0 = 0; d0 < lags; d0 += step) {
    // Block input covers signal[d0 .. d0+f-1] (zero-padded past the end);
    // valid outputs land at seg[m-1 .. m-1+count-1] after the inverse.
    const std::size_t avail = n - d0;  // d0 < lags <= n
    const std::size_t fill = f < avail ? f : avail;
    for (std::size_t i = 0; i < fill; ++i) {
      const cf32 s = signal[d0 + i];
      seg[i] = cf64{s.real(), s.imag()};
    }
    std::fill(seg.begin() + static_cast<std::ptrdiff_t>(fill), seg.end(),
              cf64{});
    plan.forward_inplace64(seg);
    simd_kernels().cmul64(seg.data(), kfft.data(), f);
    plan.inverse_inplace64(seg);
    const std::size_t count = step < lags - d0 ? step : lags - d0;
    for (std::size_t i = 0; i < count; ++i) {
      const cf64 v = seg[m - 1 + i];
      out[d0 + i] = cf32{static_cast<float>(v.real()),
                         static_cast<float>(v.imag())};
    }
  }
}

void fast_correlate_batch_into(std::span<const cf32> signal,
                               std::span<const std::span<const cf32>> patterns,
                               std::span<const std::span<cf32>> outs) {
  LSCATTER_EXPECT(patterns.size() == outs.size(),
                  "one output span per pattern");
  if (patterns.empty()) return;
  const std::size_t m = patterns[0].size();
  LSCATTER_EXPECT(m > 0, "correlation needs non-empty patterns");
  for ([[maybe_unused]] const auto& p : patterns) {
    LSCATTER_EXPECT(p.size() == m, "batched patterns must share one length");
  }
  LSCATTER_EXPECT(signal.size() >= m,
                  "signal must be at least as long as the pattern");
  const std::size_t n = signal.size();
  const std::size_t lags = n - m + 1;
  for ([[maybe_unused]] const auto& o : outs) {
    LSCATTER_EXPECT(o.size() == lags,
                    "output must hold exactly signal - pattern + 1 lags");
  }
  if (m < kFastMinPattern || lags < kFastMinLags) {
    for (std::size_t b = 0; b < patterns.size(); ++b) {
      cross_correlate_into(signal, patterns[b], outs[b]);
    }
    return;
  }

  // Matched-filter bank over one signal: the overlap-save segment FFT is
  // shared across the bank, so each block costs 1 + P transforms instead
  // of the 2P of P independent fast_correlate_into calls (the kernel
  // FFTs are per-pattern either way).
  const std::size_t f = next_power_of_two(4 * m);
  const std::size_t step = f - m + 1;
  const FftPlan& plan = cached_fft_plan(f);
  const std::size_t nbatch = patterns.size();

  CorrScratch& scratch = corr_scratch();
  if (scratch.kernel_fft.size() < f * nbatch) {
    scratch.kernel_fft.resize(f * nbatch);
  }
  if (scratch.seg.size() < f) scratch.seg.resize(f);
  if (scratch.prod.size() < f) scratch.prod.resize(f);
  const std::span<cf64> seg(scratch.seg.data(), f);
  const std::span<cf64> prod(scratch.prod.data(), f);

  for (std::size_t b = 0; b < nbatch; ++b) {
    const std::span<cf64> kfft(scratch.kernel_fft.data() + b * f, f);
    const std::span<const cf32> pattern = patterns[b];
    for (std::size_t j = 0; j < m; ++j) {
      const cf32 p = pattern[m - 1 - j];
      kfft[j] = cf64{p.real(), -p.imag()};
    }
    std::fill(kfft.begin() + static_cast<std::ptrdiff_t>(m), kfft.end(),
              cf64{});
    plan.forward_inplace64(kfft);
  }

  const SimdKernels& k = simd_kernels();
  for (std::size_t d0 = 0; d0 < lags; d0 += step) {
    const std::size_t avail = n - d0;
    const std::size_t fill = f < avail ? f : avail;
    for (std::size_t i = 0; i < fill; ++i) {
      const cf32 s = signal[d0 + i];
      seg[i] = cf64{s.real(), s.imag()};
    }
    std::fill(seg.begin() + static_cast<std::ptrdiff_t>(fill), seg.end(),
              cf64{});
    plan.forward_inplace64(seg);
    const std::size_t count = step < lags - d0 ? step : lags - d0;
    for (std::size_t b = 0; b < nbatch; ++b) {
      const cf64* kfft = scratch.kernel_fft.data() + b * f;
      std::copy(seg.begin(), seg.end(), prod.begin());
      k.cmul64(prod.data(), kfft, f);
      plan.inverse_inplace64(prod);
      const std::span<cf32> out = outs[b];
      for (std::size_t i = 0; i < count; ++i) {
        const cf64 v = prod[m - 1 + i];
        out[d0 + i] = cf32{static_cast<float>(v.real()),
                           static_cast<float>(v.imag())};
      }
    }
  }
}

namespace {

/// Shared denominator walk for the normalized variants: running window
/// energy against the fixed pattern energy.
template <typename Numerator>
void normalized_from_numerator(std::span<const cf32> signal,
                               std::span<const cf32> pattern,
                               std::span<float> out, Numerator&& num_at) {
  const std::size_t lags = signal.size() - pattern.size() + 1;
  const double pat_energy = energy(pattern);
  double win_energy = 0.0;
  for (std::size_t n = 0; n < pattern.size(); ++n)
    win_energy += std::norm(signal[n]);
  for (std::size_t d = 0; d < lags; ++d) {
    const double denom = std::sqrt(win_energy * pat_energy);
    out[d] = denom > 0.0 ? static_cast<float>(num_at(d) / denom) : 0.0f;
    if (d + 1 < lags) {
      win_energy -= std::norm(signal[d]);
      win_energy += std::norm(signal[d + pattern.size()]);
      if (win_energy < 0.0) win_energy = 0.0;
    }
  }
}

}  // namespace

fvec normalized_correlation(std::span<const cf32> signal,
                            std::span<const cf32> pattern) {
  LSCATTER_EXPECT(!pattern.empty(), "correlation needs a non-empty pattern");
  LSCATTER_EXPECT(signal.size() >= pattern.size(),
                  "signal must be at least as long as the pattern");
  const std::size_t lags = signal.size() - pattern.size() + 1;
  fvec out(lags);
  const SimdKernels& k = simd_kernels();
  normalized_from_numerator(signal, pattern, out, [&](std::size_t d) {
    double ar = 0.0;
    double ai = 0.0;
    k.corr_mac(signal.data() + d, pattern.data(), pattern.size(), &ar, &ai);
    return std::hypot(ar, ai);
  });
  return out;
}

fvec fast_normalized_correlation(std::span<const cf32> signal,
                                 std::span<const cf32> pattern) {
  LSCATTER_EXPECT(!pattern.empty(), "correlation needs a non-empty pattern");
  LSCATTER_EXPECT(signal.size() >= pattern.size(),
                  "signal must be at least as long as the pattern");
  fvec out(signal.size() - pattern.size() + 1);
  fast_normalized_correlation_into(signal, pattern, out);
  return out;
}

void fast_normalized_correlation_into(std::span<const cf32> signal,
                                      std::span<const cf32> pattern,
                                      std::span<float> out) {
  LSCATTER_EXPECT(!pattern.empty(), "correlation needs a non-empty pattern");
  LSCATTER_EXPECT(signal.size() >= pattern.size(),
                  "signal must be at least as long as the pattern");
  const std::size_t lags = signal.size() - pattern.size() + 1;
  LSCATTER_EXPECT(out.size() == lags,
                  "output must hold exactly signal - pattern + 1 lags");
  // Numerator via the FFT kernel into per-thread scratch, magnitudes
  // normalized by the same running-energy denominator as the direct
  // variant.
  thread_local cvec numerator;
  if (numerator.size() < lags) numerator.resize(lags);
  fast_correlate_into(signal, pattern,
                      std::span<cf32>(numerator.data(), lags));
  normalized_from_numerator(
      signal, pattern, out, [&](std::size_t d) {
        return static_cast<double>(std::abs(numerator[d]));
      });
}

void fast_normalized_correlation_batch_into(
    std::span<const cf32> signal,
    std::span<const std::span<const cf32>> patterns,
    std::span<const std::span<float>> outs) {
  LSCATTER_EXPECT(patterns.size() == outs.size(),
                  "one output span per pattern");
  if (patterns.empty()) return;
  const std::size_t m = patterns[0].size();
  LSCATTER_EXPECT(m > 0, "correlation needs non-empty patterns");
  LSCATTER_EXPECT(signal.size() >= m,
                  "signal must be at least as long as the pattern");
  const std::size_t lags = signal.size() - m + 1;
  // Numerators for the whole bank share each segment's forward FFT; the
  // running-energy denominator walk is per-pattern (pattern energies
  // differ) but O(N) next to the transforms.
  thread_local cvec numerators;
  thread_local std::vector<std::span<cf32>> num_spans;
  if (numerators.size() < lags * patterns.size()) {
    numerators.resize(lags * patterns.size());
  }
  num_spans.clear();
  for (std::size_t b = 0; b < patterns.size(); ++b) {
    num_spans.emplace_back(numerators.data() + b * lags, lags);
  }
  fast_correlate_batch_into(signal, patterns,
                            std::span<const std::span<cf32>>(num_spans));
  for (std::size_t b = 0; b < patterns.size(); ++b) {
    const std::span<const cf32> num = num_spans[b];
    normalized_from_numerator(
        signal, patterns[b], outs[b], [&](std::size_t d) {
          return static_cast<double>(std::abs(num[d]));
        });
  }
}

Peak peak_abs(std::span<const cf32> x) {
  LSCATTER_EXPECT(!x.empty(), "peak search needs a non-empty input");
  Peak best{0, std::abs(x[0])};
  for (std::size_t i = 1; i < x.size(); ++i) {
    const float v = std::abs(x[i]);
    if (v > best.value) best = Peak{i, v};
  }
  return best;
}

Peak peak(std::span<const float> x) {
  LSCATTER_EXPECT(!x.empty(), "peak search needs a non-empty input");
  Peak best{0, x[0]};
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > best.value) best = Peak{i, x[i]};
  }
  return best;
}

}  // namespace lscatter::dsp
