// AVX2+FMA tier of the SIMD kernel table (dsp/simd.hpp, DESIGN.md §14).
//
// Compiled with per-file -mavx2 -mfma (src/CMakeLists.txt) — nothing in
// this TU may be reachable unless runtime dispatch confirmed AVX2+FMA,
// which is why only the table symbol is exported and every function is
// file-local. All loads/stores are unaligned (loadu/storeu): callers pass
// plain std::vector storage with no alignment contract.
//
// Complex layouts used throughout:
//   __m256d = 2 × cf64  [re0, im0, re1, im1]
//   __m256  = 4 × cf32  [re0, im0, re1, im1, re2, im2, re3, im3]
// Complex multiplies pair a re/im broadcast (movedup / moveldup+movehdup)
// with a lane swap (permute 0b0101 / 0xB1) and one fused
// multiply-add/sub whose alternating sign pattern lands the +/− of the
// four-multiply formula on the right lanes.

#if defined(LSCATTER_SIMD_X86) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "dsp/simd_tables.hpp"

#if defined(LSCATTER_HAVE_LIBMVEC)
// glibc's libmvec, AVX2 variants (x86-64 vector function ABI, 4 doubles
// in ymm0). Their symbols are reserved identifiers, so the asm labels
// bind them to ordinary names. src/CMakeLists.txt links the library and
// defines the macro only where find_library finds it.
extern "C" {
__m256d libmvec_log4(__m256d x) __asm__("_ZGVdN4v_log");
__m256d libmvec_sin4(__m256d x) __asm__("_ZGVdN4v_sin");
__m256d libmvec_cos4(__m256d x) __asm__("_ZGVdN4v_cos");
}
#endif

namespace lscatter::dsp::detail {
namespace {

inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// y * w for two packed cf64, given wr = [w0r,w0r,w1r,w1r] and the
/// sign-folded wi = [w0i,w0i,w1i,w1i]: fmaddsub puts re = yr*wr − yi*wi
/// on even lanes and im = yi*wr + yr*wi on odd lanes.
inline __m256d cmul2(__m256d y, __m256d wr, __m256d wi) {
  const __m256d yswap = _mm256_permute_pd(y, 0b0101);
  return _mm256_fmaddsub_pd(y, wr, _mm256_mul_pd(yswap, wi));
}

void fft_radix2(cf64* a, std::size_t n, const cf64* twiddle, bool invert) {
  if (n < 2) return;
  auto* d = reinterpret_cast<double*>(a);
  const double s = invert ? -1.0 : 1.0;
  // len == 2: twiddle is 1, so each butterfly is x ± y on the adjacent
  // pair — one register holds both [x, y]; the swap + blend computes
  // [x+y, x−y] without ever splitting lanes.
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const __m256d v = _mm256_loadu_pd(d + 2 * i);
    const __m256d t = _mm256_permute2f128_pd(v, v, 0x01);
    const __m256d r = _mm256_blend_pd(_mm256_add_pd(v, t),
                                      _mm256_sub_pd(t, v), 0b1100);
    _mm256_storeu_pd(d + 2 * i, r);
  }
  // Inverse transforms conjugate the stored forward twiddles; folding the
  // conjugation into the imaginary broadcast (±1 multiply, exact) keeps
  // the loop branch-free, as in the scalar tier.
  const __m256d sign = _mm256_set1_pd(s);
  for (std::size_t len = 4; len <= n; len <<= 1) {
    const std::size_t half = len / 2;  // >= 2, so k always steps by 2
    const std::size_t step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; k += 2) {
        const __m128d w0 =
            _mm_loadu_pd(reinterpret_cast<const double*>(twiddle + k * step));
        const __m128d w1 = _mm_loadu_pd(
            reinterpret_cast<const double*>(twiddle + (k + 1) * step));
        const __m256d w = _mm256_set_m128d(w1, w0);
        const __m256d wr = _mm256_movedup_pd(w);
        const __m256d wi =
            _mm256_mul_pd(_mm256_permute_pd(w, 0b1111), sign);
        const __m256d x = _mm256_loadu_pd(d + 2 * (i + k));
        const __m256d y = _mm256_loadu_pd(d + 2 * (i + k + half));
        const __m256d v = cmul2(y, wr, wi);
        _mm256_storeu_pd(d + 2 * (i + k), _mm256_add_pd(x, v));
        _mm256_storeu_pd(d + 2 * (i + k + half), _mm256_sub_pd(x, v));
      }
    }
  }
}

void corr_mac(const cf32* s, const cf32* p, std::size_t m, double* ar,
              double* ai) {
  const auto* sf = reinterpret_cast<const float*>(s);
  const auto* pf = reinterpret_cast<const float*>(p);
  // Two independent accumulator pairs hide the FMA latency chain; the
  // samples are widened to double before accumulation so the vector sum
  // matches the scalar tier's double MACs to rounding-order only.
  __m256d acc_r0 = _mm256_setzero_pd();
  __m256d acc_r1 = _mm256_setzero_pd();
  __m256d acc_i0 = _mm256_setzero_pd();
  __m256d acc_i1 = _mm256_setzero_pd();
  const __m256d alt = _mm256_setr_pd(1.0, -1.0, 1.0, -1.0);
  std::size_t k = 0;
  for (; k + 4 <= m; k += 4) {
    const __m256d sv0 = _mm256_cvtps_pd(_mm_loadu_ps(sf + 2 * k));
    const __m256d pv0 = _mm256_cvtps_pd(_mm_loadu_ps(pf + 2 * k));
    const __m256d sv1 = _mm256_cvtps_pd(_mm_loadu_ps(sf + 2 * k + 4));
    const __m256d pv1 = _mm256_cvtps_pd(_mm_loadu_ps(pf + 2 * k + 4));
    // re: Σ sr·pr + si·pi — every lane of sv·pv contributes positively.
    acc_r0 = _mm256_fmadd_pd(sv0, pv0, acc_r0);
    acc_r1 = _mm256_fmadd_pd(sv1, pv1, acc_r1);
    // im: Σ si·pr − sr·pi — swap s, negate odd lanes of p, one FMA.
    acc_i0 = _mm256_fmadd_pd(_mm256_permute_pd(sv0, 0b0101),
                             _mm256_mul_pd(pv0, alt), acc_i0);
    acc_i1 = _mm256_fmadd_pd(_mm256_permute_pd(sv1, 0b0101),
                             _mm256_mul_pd(pv1, alt), acc_i1);
  }
  double re = hsum(_mm256_add_pd(acc_r0, acc_r1));
  double im = hsum(_mm256_add_pd(acc_i0, acc_i1));
  for (; k < m; ++k) {
    const cf32 sv = s[k];
    const cf32 pv = p[k];
    re += static_cast<double>(sv.real()) * pv.real() +
          static_cast<double>(sv.imag()) * pv.imag();
    im += static_cast<double>(sv.imag()) * pv.real() -
          static_cast<double>(sv.real()) * pv.imag();
  }
  *ar += re;
  *ai += im;
}

void cmul64(cf64* x, const cf64* h, std::size_t n) {
  auto* xd = reinterpret_cast<double*>(x);
  const auto* hd = reinterpret_cast<const double*>(h);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d xv = _mm256_loadu_pd(xd + 2 * i);
    const __m256d hv = _mm256_loadu_pd(hd + 2 * i);
    const __m256d hr = _mm256_movedup_pd(hv);
    const __m256d hi = _mm256_permute_pd(hv, 0b1111);
    _mm256_storeu_pd(xd + 2 * i, cmul2(xv, hr, hi));
  }
  for (; i < n; ++i) {
    const cf64 a = x[i];
    const cf64 b = h[i];
    x[i] = cf64{a.real() * b.real() - a.imag() * b.imag(),
                a.real() * b.imag() + a.imag() * b.real()};
  }
}

void conj_mul(const cf32* a, const cf32* b, cf32* z, std::size_t n) {
  const auto* af = reinterpret_cast<const float*>(a);
  const auto* bf = reinterpret_cast<const float*>(b);
  auto* zf = reinterpret_cast<float*>(z);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 av = _mm256_loadu_ps(af + 2 * i);
    const __m256 bv = _mm256_loadu_ps(bf + 2 * i);
    const __m256 br = _mm256_moveldup_ps(bv);
    const __m256 bi = _mm256_movehdup_ps(bv);
    const __m256 aswap = _mm256_permute_ps(av, 0xB1);
    // a·conj(b): fmsubadd puts re = ar·br + ai·bi on even lanes and
    // im = ai·br − ar·bi on odd lanes.
    const __m256 zv =
        _mm256_fmsubadd_ps(av, br, _mm256_mul_ps(aswap, bi));
    _mm256_storeu_ps(zf + 2 * i, zv);
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
  const auto* vf = reinterpret_cast<const float*>(v);
  __m256d acc = _mm256_setzero_pd();
  __m256d mag2 = _mm256_setzero_pd();  // each |v| lands twice; halve at end
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d x = _mm256_cvtps_pd(_mm_loadu_ps(vf + 2 * i));
    acc = _mm256_add_pd(acc, x);
    const __m256d sq = _mm256_mul_pd(x, x);
    const __m256d nrm =
        _mm256_add_pd(sq, _mm256_permute_pd(sq, 0b0101));
    mag2 = _mm256_add_pd(mag2, _mm256_sqrt_pd(nrm));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double re = lanes[0] + lanes[2];
  double im = lanes[1] + lanes[3];
  double mag = 0.5 * hsum(mag2);
  for (; i < n; ++i) {
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
  const auto* vf = reinterpret_cast<const float*>(v);
  __m256d all = _mm256_setzero_pd();
  __m256d sel = _mm256_setzero_pd();
  __m256d mag2 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d x = _mm256_cvtps_pd(_mm_loadu_ps(vf + 2 * i));
    all = _mm256_add_pd(all, x);
    const __m256d sq = _mm256_mul_pd(x, x);
    const __m256d nrm =
        _mm256_add_pd(sq, _mm256_permute_pd(sq, 0b0101));
    mag2 = _mm256_add_pd(mag2, _mm256_sqrt_pd(nrm));
    // Select by multiplying with an exact 0/1 mask — cheaper than an
    // integer widen/compare for two bytes, and bit-identical to a branch.
    const double m0 = pattern[i] != 0 ? 1.0 : 0.0;
    const double m1 = pattern[i + 1] != 0 ? 1.0 : 0.0;
    sel = _mm256_fmadd_pd(x, _mm256_setr_pd(m0, m0, m1, m1), sel);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, all);
  double tr = lanes[0] + lanes[2];
  double ti = lanes[1] + lanes[3];
  _mm256_store_pd(lanes, sel);
  double sr = lanes[0] + lanes[2];
  double si = lanes[1] + lanes[3];
  double mag = 0.5 * hsum(mag2);
  for (; i < n; ++i) {
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

// QAM demappers: one ordered compare per decision bit, movemask to pull
// all 8 float lanes' verdicts into a byte, then unpack in lane order
// (lane 2k = re of symbol k, lane 2k+1 = im — exactly the b[re],b[im]
// interleave of the scalar demapper). _CMP_LT_OQ / _CMP_GT_OQ reproduce
// the scalar </> exactly, including NaN → 0 and −0.0 < 0.0 → false, so
// all tiers are bit-exact.

// Movemask bits back to one 0/1 byte per bit, entirely in SIMD: pshufb
// replicates the mask byte holding each output's bit across the output
// bytes, then AND + compare-equal against a per-byte single-bit mask
// turns "bit set" into 0xFF and a final AND 1 into the 0/1 byte the
// demap contract requires. One multi-byte store replaces the scalar
// shift/and/store chain per bit that used to dominate the demappers.

// 8 movemask bits -> 8 bytes (one XMM half-store).
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
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 v = _mm256_loadu_ps(sf + 2 * i);
    const int neg =
        _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ));
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
  const __m256 zero = _mm256_setzero_ps();
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 thresh = _mm256_set1_ps(kQam16Thresh);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 v = _mm256_loadu_ps(sf + 2 * i);
    const int hi = _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ));
    const __m256 a = _mm256_and_ps(v, absmask);
    const int lo = _mm256_movemask_ps(_mm256_cmp_ps(a, thresh, _CMP_GT_OQ));
    // Per symbol k the four output bytes read bits {2k, 2k+1} of `hi`
    // then of `lo`: select the mask byte (hi = byte 0, lo = byte 1 of
    // `w`), isolate the bit, normalize to 0/1, one 16-byte store.
    const __m128i w =
        _mm_set1_epi32(static_cast<int>(hi | (static_cast<unsigned>(lo) << 8)));
    const __m128i sel =
        _mm_setr_epi8(0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1);
    const __m128i bitm =
        _mm_setr_epi8(1, 2, 1, 2, 4, 8, 4, 8, 16, 32, 16, 32, 64,
                      static_cast<char>(-128), 64, static_cast<char>(-128));
    const __m128i x = _mm_and_si128(_mm_shuffle_epi8(w, sel), bitm);
    const __m128i hit = _mm_cmpeq_epi8(x, bitm);
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
  const __m256 zero = _mm256_setzero_ps();
  const __m256 absmask =
      _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 tmid = _mm256_set1_ps(kQam64ThreshMid);
  const __m256 tlo = _mm256_set1_ps(kQam64ThreshLo);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 v = _mm256_loadu_ps(sf + 2 * i);
    const int hi = _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ));
    const __m256 a = _mm256_and_ps(v, absmask);
    const int mid = _mm256_movemask_ps(_mm256_cmp_ps(a, tmid, _CMP_GT_OQ));
    const __m256 d = _mm256_and_ps(_mm256_sub_ps(a, tmid), absmask);
    const int lo = _mm256_movemask_ps(_mm256_cmp_ps(d, tlo, _CMP_GT_OQ));
    // 24 output bytes from the three 8-bit masks packed into one dword
    // (hi = byte 0, mid = byte 1, lo = byte 2), broadcast so the in-lane
    // pshufb reaches every mask byte from both 128-bit lanes. Stores:
    // 16 bytes from the low lane + 8 from the high.
    const __m256i w = _mm256_set1_epi32(static_cast<int>(
        static_cast<unsigned>(hi) | (static_cast<unsigned>(mid) << 8) |
        (static_cast<unsigned>(lo) << 16)));
    const __m256i sel = _mm256_setr_epi8(
        0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2, 0, 0, 1, 1,  //
        2, 2, 0, 0, 1, 1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0);
    const __m256i bitm = _mm256_setr_epi8(
        1, 2, 1, 2, 1, 2, 4, 8, 4, 8, 4, 8, 16, 32, 16, 32,  //
        16, 32, 64, static_cast<char>(-128), 64, static_cast<char>(-128),
        64, static_cast<char>(-128), 0, 0, 0, 0, 0, 0, 0, 0);
    const __m256i x = _mm256_and_si256(_mm256_shuffle_epi8(w, sel), bitm);
    const __m256i out = _mm256_and_si256(_mm256_cmpeq_epi8(x, bitm),
                                         _mm256_set1_epi8(1));
    std::uint8_t* b = bits + 6 * i;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(b),
                     _mm256_castsi256_si128(out));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(b + 16),
                     _mm256_extracti128_si256(out, 1));
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

#if defined(LSCATTER_HAVE_LIBMVEC)
// Box–Muller accept rule (DESIGN.md §17). A component D̃ computed with
// libmvec lies within kBoxMullerRel·|D̃| of the scalar entry's D (the
// derived bound, doubled), so where D̃ ± that window round to the same
// float, D rounds there too. Lanes below the magnitude floor (D̃ == 0
// included, where a relative bound says nothing) or near a zero of their
// sin/cos go to the scalar entry.
constexpr double kBoxMullerRel = 0x1p-47;
constexpr double kBoxMullerMinTrig = 0x1p-20;
constexpr double kBoxMullerMinMag = 0x1p-1000;

/// 4-bit mask of the lanes of `d` whose float rounding is decided.
inline int box_muller_decided(__m256d d, __m256d trig) {
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d mag = _mm256_and_pd(d, absmask);
  const __m256d b = _mm256_mul_pd(mag, _mm256_set1_pd(kBoxMullerRel));
  const __m128 lo = _mm256_cvtpd_ps(_mm256_sub_pd(d, b));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_add_pd(d, b));
  const __m256d in_range = _mm256_and_pd(
      _mm256_cmp_pd(mag, _mm256_set1_pd(kBoxMullerMinMag), _CMP_GE_OQ),
      _mm256_cmp_pd(_mm256_and_pd(trig, absmask),
                    _mm256_set1_pd(kBoxMullerMinTrig), _CMP_GE_OQ));
  return _mm_movemask_ps(_mm_cmpeq_ps(lo, hi)) &
         _mm256_movemask_pd(in_range);
}

void box_muller_add(const double* u1, const double* u2, std::size_t n,
                    double scale, cf32* x) {
  auto* xf = reinterpret_cast<float*>(x);
  const __m256d two_pi = _mm256_set1_pd(kTwoPi);
  const __m256d minus_two = _mm256_set1_pd(-2.0);
  const __m256d vscale = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // The scalar entry's operations in its order, 4 lanes at a time;
    // only log, sin and cos differ (libmvec instead of libm).
    const __m256d r = _mm256_sqrt_pd(
        _mm256_mul_pd(minus_two, libmvec_log4(_mm256_loadu_pd(u1 + i))));
    const __m256d a = _mm256_mul_pd(two_pi, _mm256_loadu_pd(u2 + i));
    const __m256d c = libmvec_cos4(a);
    const __m256d s = libmvec_sin4(a);
    const __m256d re = _mm256_mul_pd(vscale, _mm256_mul_pd(r, c));
    const __m256d im = _mm256_mul_pd(vscale, _mm256_mul_pd(r, s));
    const int ok = box_muller_decided(re, c) & box_muller_decided(im, s);
    const __m128 fre = _mm256_cvtpd_ps(re);
    const __m128 fim = _mm256_cvtpd_ps(im);
    if (ok == 0xF) {
      const __m256 noise = _mm256_set_m128(_mm_unpackhi_ps(fre, fim),
                                           _mm_unpacklo_ps(fre, fim));
      _mm256_storeu_ps(xf + 2 * i,
                       _mm256_add_ps(_mm256_loadu_ps(xf + 2 * i), noise));
      continue;
    }
    alignas(16) float fr[4] = {};
    alignas(16) float fi[4] = {};
    _mm_store_ps(fr, fre);
    _mm_store_ps(fi, fim);
    for (std::size_t j = 0; j < 4; ++j) {
      if ((ok >> j) & 1) {
        x[i + j] += cf32{fr[j], fi[j]};
      } else {
        box_muller_add_scalar(u1 + i + j, u2 + i + j, 1, scale, x + i + j);
      }
    }
  }
  box_muller_add_scalar(u1 + i, u2 + i, n - i, scale, x + i);
}
#endif  // LSCATTER_HAVE_LIBMVEC

}  // namespace

const SimdKernels kAvx2Kernels = {
    SimdTier::kAvx2, &fft_radix2,   &corr_mac,    &cmul64,
    &conj_mul,       &sum_abs,      &pattern_sums, &qam_demap_qpsk,
    &qam_demap16,    &qam_demap64,
#if defined(LSCATTER_HAVE_LIBMVEC)
    &box_muller_add,
#else
    // Without libmvec there is no exact-checked vector path to offer.
    &box_muller_add_scalar,
#endif
};

}  // namespace lscatter::dsp::detail

#endif  // LSCATTER_SIMD_X86 && __AVX2__ && __FMA__
