// Scalar tier of the SIMD kernel table (dsp/simd.hpp, DESIGN.md §14).
//
// This TU is the reference implementation: every vector tier must match
// it to the equivalence-suite tolerance (bit-exactly for the QAM hard
// decisions and the Box–Muller AWGN). It is also the only tier on
// non-x86 targets and under -DLSCATTER_SIMD=OFF, so it carries the same
// no-alias/real-arithmetic discipline as the pre-SIMD hot loops it
// absorbed (see the radix2 note below).

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "dsp/simd_tables.hpp"

namespace lscatter::dsp::detail {
namespace {

// Iterative radix-2 DIT butterflies on a double-precision buffer that is
// already in bit-reversed order (fft.cpp permutes while it loads).
//
// The butterflies spell out the complex multiply in real arithmetic:
// std::complex<double> operator* otherwise goes through the IEEE-pedantic
// inf/NaN rescue path (__muldc3); inputs here are finite by construction,
// so the four-multiply formula is safe. The buffers are __restrict
// pointers, not spans: without the no-alias guarantee the compiler must
// reload the twiddle after every butterfly store, which measures ~5x
// slower than this form at n = 1024.
void fft_radix2(cf64* __restrict a, std::size_t n,
                const cf64* __restrict twiddle, bool invert) {
  // Twiddles are stored for the forward transform; the inverse conjugates
  // them. Folding the conjugation into a sign keeps the inner loop
  // branch-free (multiplying by ±1.0 is exact, so this cannot perturb
  // the forward path's bits).
  const double s = invert ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cf64 w = twiddle[k * step];
        const double wr = w.real();
        const double wi = s * w.imag();
        const cf64 y = a[i + k + half];
        const double vr = y.real() * wr - y.imag() * wi;
        const double vi = y.real() * wi + y.imag() * wr;
        const cf64 x = a[i + k];
        a[i + k] = cf64{x.real() + vr, x.imag() + vi};
        a[i + k + half] = cf64{x.real() - vr, x.imag() - vi};
      }
    }
  }
}

void corr_mac(const cf32* s, const cf32* p, std::size_t m, double* ar,
              double* ai) {
  double acc_re = 0.0;
  double acc_im = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    const cf32 sv = s[k];
    const cf32 pv = p[k];
    // s * conj(p), accumulated in double.
    acc_re += static_cast<double>(sv.real()) * pv.real() +
              static_cast<double>(sv.imag()) * pv.imag();
    acc_im += static_cast<double>(sv.imag()) * pv.real() -
              static_cast<double>(sv.real()) * pv.imag();
  }
  *ar += acc_re;
  *ai += acc_im;
}

void cmul64(cf64* x, const cf64* h, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const cf64 a = x[i];
    const cf64 b = h[i];
    x[i] = cf64{a.real() * b.real() - a.imag() * b.imag(),
                a.real() * b.imag() + a.imag() * b.real()};
  }
}

void conj_mul(const cf32* a, const cf32* b, cf32* z, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const cf32 av = a[i];
    const cf32 bv = b[i];
    z[i] = cf32{av.real() * bv.real() + av.imag() * bv.imag(),
                av.imag() * bv.real() - av.real() * bv.imag()};
  }
}

void sum_abs(const cf32* v, std::size_t n, double* ar, double* ai,
             double* abs_sum) {
  double re = 0.0;
  double im = 0.0;
  double mag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = v[i].real();
    const double q = v[i].imag();
    re += r;
    im += q;
    mag += std::sqrt(r * r + q * q);
  }
  *ar += re;
  *ai += im;
  *abs_sum += mag;
}

void pattern_sums(const cf32* v, const std::uint8_t* pattern, std::size_t n,
                  double* sel_r, double* sel_i, double* all_r, double* all_i,
                  double* abs_sum) {
  double sr = 0.0;
  double si = 0.0;
  double tr = 0.0;
  double ti = 0.0;
  double mag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = v[i].real();
    const double q = v[i].imag();
    tr += r;
    ti += q;
    mag += std::sqrt(r * r + q * q);
    if (pattern[i] != 0) {
      sr += r;
      si += q;
    }
  }
  *sel_r += sr;
  *sel_i += si;
  *all_r += tr;
  *all_i += ti;
  *abs_sum += mag;
}

void qam_demap_qpsk(const cf32* sym, std::size_t n, std::uint8_t* bits) {
  for (std::size_t i = 0; i < n; ++i) {
    bits[2 * i + 0] = sym[i].real() < 0.0f ? 1 : 0;
    bits[2 * i + 1] = sym[i].imag() < 0.0f ? 1 : 0;
  }
}

inline void demap_axis16(float v, std::uint8_t& b_hi, std::uint8_t& b_lo) {
  b_hi = v < 0.0f ? 1 : 0;
  b_lo = std::abs(v) > kQam16Thresh ? 1 : 0;
}

void qam_demap16(const cf32* sym, std::size_t n, std::uint8_t* bits) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* b = bits + 4 * i;
    demap_axis16(sym[i].real(), b[0], b[2]);
    demap_axis16(sym[i].imag(), b[1], b[3]);
  }
}

inline void demap_axis64(float v, std::uint8_t& b_hi, std::uint8_t& b_mid,
                         std::uint8_t& b_lo) {
  b_hi = v < 0.0f ? 1 : 0;
  const float a = std::abs(v);
  b_mid = a > kQam64ThreshMid ? 1 : 0;
  // Inner pair {1,3}: b_lo=1 selects the outer of the pair on each side of 4.
  b_lo = std::abs(a - kQam64ThreshMid) > kQam64ThreshLo ? 1 : 0;
}

void qam_demap64(const cf32* sym, std::size_t n, std::uint8_t* bits) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* b = bits + 6 * i;
    demap_axis64(sym[i].real(), b[0], b[2], b[4]);
    demap_axis64(sym[i].imag(), b[1], b[3], b[5]);
  }
}

}  // namespace

// Rng::normal's expression, operation for operation: the product r·cos
// is rounded to double before the scale multiply, as the cached deviate
// is, and each component rounds once to float.
void box_muller_add_scalar(const double* u1, const double* u2,
                           std::size_t n, double scale, cf32* x) {
  for (std::size_t i = 0; i < n; ++i) {
    const double r = std::sqrt(-2.0 * std::log(u1[i]));
    const double a = kTwoPi * u2[i];
    const double c = r * std::cos(a);
    const double s = r * std::sin(a);
    x[i] += cf32{static_cast<float>(scale * c), static_cast<float>(scale * s)};
  }
}

const SimdKernels kScalarKernels = {
    SimdTier::kScalar, &fft_radix2,   &corr_mac,    &cmul64,
    &conj_mul,         &sum_abs,      &pattern_sums, &qam_demap_qpsk,
    &qam_demap16,      &qam_demap64,  &box_muller_add_scalar,
};

}  // namespace lscatter::dsp::detail
