// SSE2 tier of the SIMD kernel table (dsp/simd.hpp, DESIGN.md §14).
//
// SSE2 is baseline on x86-64, so this tier is what `LSCATTER_SIMD=sse2`
// (or a pre-AVX2 CPU under `auto`) runs. It works half a vector at a
// time relative to AVX2 and has neither FMA nor the SSE3 addsub/moveldup
// forms, so the alternating-sign steps use explicit xor-with-sign-mask;
// the win over scalar is real but modest — the tier mainly guarantees a
// vector path (and exercises the clamping logic) everywhere dispatch can
// land. Unaligned loads/stores throughout; same equivalence contract as
// every tier (bit-exact QAM, tolerance-bounded sums).

#if defined(LSCATTER_SIMD_X86) && defined(__SSE2__)

#include <emmintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "dsp/simd_tables.hpp"

namespace lscatter::dsp::detail {
namespace {

/// x * w for one cf64 in [re, im] layout; wr/wi pre-broadcast, wi
/// sign-folded. neglo flips the low lane of the cross term to build
/// re = xr*wr − xi*wi, im = xi*wr + xr*wi without SSE3's addsub.
inline __m128d cmul1(__m128d x, __m128d wr, __m128d wi) {
  const __m128d neglo = _mm_set_pd(0.0, -0.0);
  const __m128d xswap = _mm_shuffle_pd(x, x, 0b01);
  const __m128d cross = _mm_xor_pd(_mm_mul_pd(xswap, wi), neglo);
  return _mm_add_pd(_mm_mul_pd(x, wr), cross);
}

void fft_radix2(cf64* a, std::size_t n, const cf64* twiddle, bool invert) {
  auto* d = reinterpret_cast<double*>(a);
  const double s = invert ? -1.0 : 1.0;
  const __m128d sign = _mm_set1_pd(s);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const __m128d w = _mm_loadu_pd(
            reinterpret_cast<const double*>(twiddle + k * step));
        const __m128d wr = _mm_unpacklo_pd(w, w);
        const __m128d wi = _mm_mul_pd(_mm_unpackhi_pd(w, w), sign);
        const __m128d x = _mm_loadu_pd(d + 2 * (i + k));
        const __m128d y = _mm_loadu_pd(d + 2 * (i + k + half));
        const __m128d v = cmul1(y, wr, wi);
        _mm_storeu_pd(d + 2 * (i + k), _mm_add_pd(x, v));
        _mm_storeu_pd(d + 2 * (i + k + half), _mm_sub_pd(x, v));
      }
    }
  }
}

void corr_mac(const cf32* s, const cf32* p, std::size_t m, double* ar,
              double* ai) {
  const __m128d neghi = _mm_set_pd(-0.0, 0.0);
  __m128d acc_r = _mm_setzero_pd();  // [Σ sr·pr, Σ si·pi]
  __m128d acc_i = _mm_setzero_pd();  // [Σ si·pr, −Σ sr·pi]
  for (std::size_t k = 0; k < m; ++k) {
    const __m128d sv = _mm_cvtps_pd(_mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(s + k))));
    const __m128d pv = _mm_cvtps_pd(_mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + k))));
    acc_r = _mm_add_pd(acc_r, _mm_mul_pd(sv, pv));
    const __m128d sswap = _mm_shuffle_pd(sv, sv, 0b01);
    acc_i = _mm_add_pd(acc_i,
                       _mm_xor_pd(_mm_mul_pd(sswap, pv), neghi));
  }
  *ar += _mm_cvtsd_f64(acc_r) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(acc_r, acc_r));
  *ai += _mm_cvtsd_f64(acc_i) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(acc_i, acc_i));
}

void cmul64(cf64* x, const cf64* h, std::size_t n) {
  auto* xd = reinterpret_cast<double*>(x);
  const auto* hd = reinterpret_cast<const double*>(h);
  for (std::size_t i = 0; i < n; ++i) {
    const __m128d xv = _mm_loadu_pd(xd + 2 * i);
    const __m128d hv = _mm_loadu_pd(hd + 2 * i);
    const __m128d hr = _mm_unpacklo_pd(hv, hv);
    const __m128d hi = _mm_unpackhi_pd(hv, hv);
    _mm_storeu_pd(xd + 2 * i, cmul1(xv, hr, hi));
  }
}

void conj_mul(const cf32* a, const cf32* b, cf32* z, std::size_t n) {
  const auto* af = reinterpret_cast<const float*>(a);
  const auto* bf = reinterpret_cast<const float*>(b);
  auto* zf = reinterpret_cast<float*>(z);
  // Negate the odd (imag) lanes of the cross term: re = ar·br + ai·bi,
  // im = ai·br − ar·bi for the two packed cf32.
  const __m128 negodd = _mm_set_ps(-0.0f, 0.0f, -0.0f, 0.0f);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 av = _mm_loadu_ps(af + 2 * i);
    const __m128 bv = _mm_loadu_ps(bf + 2 * i);
    const __m128 br = _mm_shuffle_ps(bv, bv, _MM_SHUFFLE(2, 2, 0, 0));
    const __m128 bi = _mm_shuffle_ps(bv, bv, _MM_SHUFFLE(3, 3, 1, 1));
    const __m128 aswap = _mm_shuffle_ps(av, av, _MM_SHUFFLE(2, 3, 0, 1));
    const __m128 cross = _mm_xor_ps(_mm_mul_ps(aswap, bi), negodd);
    _mm_storeu_ps(zf + 2 * i, _mm_add_ps(_mm_mul_ps(av, br), cross));
  }
  for (; i < n; ++i) {
    const cf32 av = a[i];
    const cf32 bv = b[i];
    z[i] = cf32{av.real() * bv.real() + av.imag() * bv.imag(),
                av.imag() * bv.real() - av.real() * bv.imag()};
  }
}

void sum_abs(const cf32* v, std::size_t n, double* ar, double* ai,
             double* abs_sum) {
  __m128d acc = _mm_setzero_pd();  // [Σ re, Σ im]
  __m128d mag = _mm_setzero_pd();  // low lane accumulates Σ |v|
  for (std::size_t i = 0; i < n; ++i) {
    const __m128d x = _mm_cvtps_pd(_mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(v + i))));
    acc = _mm_add_pd(acc, x);
    const __m128d sq = _mm_mul_pd(x, x);
    const __m128d nrm = _mm_add_sd(sq, _mm_unpackhi_pd(sq, sq));
    mag = _mm_add_sd(mag, _mm_sqrt_sd(nrm, nrm));
  }
  *ar += _mm_cvtsd_f64(acc);
  *ai += _mm_cvtsd_f64(_mm_unpackhi_pd(acc, acc));
  *abs_sum += _mm_cvtsd_f64(mag);
}

void pattern_sums(const cf32* v, const std::uint8_t* pattern, std::size_t n,
                  double* sel_r, double* sel_i, double* all_r, double* all_i,
                  double* abs_sum) {
  __m128d all = _mm_setzero_pd();
  __m128d sel = _mm_setzero_pd();
  __m128d mag = _mm_setzero_pd();
  for (std::size_t i = 0; i < n; ++i) {
    const __m128d x = _mm_cvtps_pd(_mm_castsi128_ps(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(v + i))));
    all = _mm_add_pd(all, x);
    const __m128d sq = _mm_mul_pd(x, x);
    const __m128d nrm = _mm_add_sd(sq, _mm_unpackhi_pd(sq, sq));
    mag = _mm_add_sd(mag, _mm_sqrt_sd(nrm, nrm));
    // Exact 0/1 multiply keeps the selected sum bit-identical to a branch.
    sel = _mm_add_pd(
        sel, _mm_mul_pd(x, _mm_set1_pd(pattern[i] != 0 ? 1.0 : 0.0)));
  }
  *all_r += _mm_cvtsd_f64(all);
  *all_i += _mm_cvtsd_f64(_mm_unpackhi_pd(all, all));
  *sel_r += _mm_cvtsd_f64(sel);
  *sel_i += _mm_cvtsd_f64(_mm_unpackhi_pd(sel, sel));
  *abs_sum += _mm_cvtsd_f64(mag);
}

// QAM demappers: same compare/movemask scheme as the AVX2 tier at half
// width — SSE2's cmplt/cmpgt are the ordered non-signaling compares, so
// the NaN/−0.0 behaviour matches the scalar </> exactly.

// 8 movemask bits -> 8 bytes of 0/1, using only SSE2 (broadcast the
// mask byte, AND with per-byte single-bit masks, compare-equal). The
// demappers below produce their bit bytes this way instead of a scalar
// shift/and/store chain per bit.
inline __m128i expand8(int mask) {
  const __m128i w = _mm_set1_epi8(static_cast<char>(mask));
  const __m128i bitm = _mm_setr_epi8(1, 2, 4, 8, 16, 32, 64,
                                     static_cast<char>(-128), 0, 0, 0, 0, 0,
                                     0, 0, 0);
  const __m128i hit = _mm_cmpeq_epi8(_mm_and_si128(w, bitm), bitm);
  return _mm_and_si128(hit, _mm_set1_epi8(1));
}

void qam_demap_qpsk(const cf32* sym, std::size_t n, std::uint8_t* bits) {
  const auto* sf = reinterpret_cast<const float*>(sym);
  const __m128 zero = _mm_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v0 = _mm_loadu_ps(sf + 2 * i);
    const __m128 v1 = _mm_loadu_ps(sf + 2 * i + 4);
    const int neg = _mm_movemask_ps(_mm_cmplt_ps(v0, zero)) |
                    (_mm_movemask_ps(_mm_cmplt_ps(v1, zero)) << 4);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(bits + 2 * i),
                     expand8(neg));
  }
  for (; i < n; ++i) {
    bits[2 * i + 0] = sym[i].real() < 0.0f ? 1 : 0;
    bits[2 * i + 1] = sym[i].imag() < 0.0f ? 1 : 0;
  }
}

void qam_demap16(const cf32* sym, std::size_t n, std::uint8_t* bits) {
  const auto* sf = reinterpret_cast<const float*>(sym);
  const __m128 zero = _mm_setzero_ps();
  const __m128 absmask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  const __m128 thresh = _mm_set1_ps(kQam16Thresh);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 v0 = _mm_loadu_ps(sf + 2 * i);
    const __m128 v1 = _mm_loadu_ps(sf + 2 * i + 4);
    const int hi = _mm_movemask_ps(_mm_cmplt_ps(v0, zero)) |
                   (_mm_movemask_ps(_mm_cmplt_ps(v1, zero)) << 4);
    const __m128 a0 = _mm_and_ps(v0, absmask);
    const __m128 a1 = _mm_and_ps(v1, absmask);
    const int lo = _mm_movemask_ps(_mm_cmpgt_ps(a0, thresh)) |
                   (_mm_movemask_ps(_mm_cmpgt_ps(a1, thresh)) << 4);
    // Byte pattern per symbol is [hi, hi, lo, lo]; the 16-bit unpack of
    // the two broadcast mask bytes produces exactly that period.
    const __m128i h16 = _mm_set1_epi16(static_cast<short>(hi * 0x0101));
    const __m128i l16 = _mm_set1_epi16(static_cast<short>(lo * 0x0101));
    const __m128i w = _mm_unpacklo_epi16(h16, l16);
    const __m128i bitm =
        _mm_setr_epi8(1, 2, 1, 2, 4, 8, 4, 8, 16, 32, 16, 32, 64,
                      static_cast<char>(-128), 64, static_cast<char>(-128));
    const __m128i hit = _mm_cmpeq_epi8(_mm_and_si128(w, bitm), bitm);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(bits + 4 * i),
                     _mm_and_si128(hit, _mm_set1_epi8(1)));
  }
  for (; i < n; ++i) {
    std::uint8_t* b = bits + 4 * i;
    const float re = sym[i].real();
    const float im = sym[i].imag();
    b[0] = re < 0.0f ? 1 : 0;
    b[1] = im < 0.0f ? 1 : 0;
    b[2] = std::abs(re) > kQam16Thresh ? 1 : 0;
    b[3] = std::abs(im) > kQam16Thresh ? 1 : 0;
  }
}

void qam_demap64(const cf32* sym, std::size_t n, std::uint8_t* bits) {
  const auto* sf = reinterpret_cast<const float*>(sym);
  const __m128 zero = _mm_setzero_ps();
  const __m128 absmask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  const __m128 tmid = _mm_set1_ps(kQam64ThreshMid);
  const __m128 tlo = _mm_set1_ps(kQam64ThreshLo);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 v = _mm_loadu_ps(sf + 2 * i);
    const int hi = _mm_movemask_ps(_mm_cmplt_ps(v, zero));
    const __m128 a = _mm_and_ps(v, absmask);
    const int mid = _mm_movemask_ps(_mm_cmpgt_ps(a, tmid));
    const __m128 d = _mm_and_ps(_mm_sub_ps(a, tmid), absmask);
    const int lo = _mm_movemask_ps(_mm_cmpgt_ps(d, tlo));
    // The 6-byte-per-symbol pattern has no SSE2 unpack form, so expand
    // each symbol's 6 bits branch-free in a 64-bit register instead:
    // replicate into 6 bytes (x * 0x0101...), isolate bit i in byte i,
    // then +0x7F pushes nonzero bytes past bit 7 (no inter-byte carry:
    // max byte is 0x20 + 0x7F) and the shift/AND normalizes to 0/1.
    for (int k = 0; k < 2; ++k) {
      const unsigned s = ((static_cast<unsigned>(hi) >> (2 * k)) & 3u) |
                         (((static_cast<unsigned>(mid) >> (2 * k)) & 3u)
                          << 2) |
                         (((static_cast<unsigned>(lo) >> (2 * k)) & 3u)
                          << 4);
      const std::uint64_t y =
          ((s * 0x010101010101ULL) & 0x201008040201ULL) +
          0x7F7F7F7F7F7FULL;
      const std::uint64_t out = (y >> 7) & 0x010101010101ULL;
      std::memcpy(bits + 6 * (i + static_cast<std::size_t>(k)), &out, 6);
    }
  }
  for (; i < n; ++i) {
    std::uint8_t* b = bits + 6 * i;
    const float re = sym[i].real();
    const float im = sym[i].imag();
    b[0] = re < 0.0f ? 1 : 0;
    b[1] = im < 0.0f ? 1 : 0;
    const float are = std::abs(re);
    const float aim = std::abs(im);
    b[2] = are > kQam64ThreshMid ? 1 : 0;
    b[3] = aim > kQam64ThreshMid ? 1 : 0;
    b[4] = std::abs(are - kQam64ThreshMid) > kQam64ThreshLo ? 1 : 0;
    b[5] = std::abs(aim - kQam64ThreshMid) > kQam64ThreshLo ? 1 : 0;
  }
}

}  // namespace

const SimdKernels kSse2Kernels = {
    SimdTier::kSse2, &fft_radix2,   &corr_mac,    &cmul64,
    &conj_mul,       &sum_abs,      &pattern_sums, &qam_demap_qpsk,
    &qam_demap16,    &qam_demap64,
};

}  // namespace lscatter::dsp::detail

#endif  // LSCATTER_SIMD_X86 && __SSE2__
