// Scalar-vs-SIMD equivalence for the runtime-dispatched kernel layer
// (DESIGN.md §14). Every vector tier the host supports must reproduce
// the scalar reference: <= 1e-4 relative on the floating-point kernels
// (random + Zadoff-Chu inputs, every LTE numerology size) and bit-exact
// on the QAM hard decisions and the Box–Muller AWGN kernel. Also pins
// the dispatch contract itself —
// LSCATTER_SIMD-style specs resolve to the named tier, and `auto` never
// picks a tier the CPU cannot run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/contracts.hpp"
#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "dsp/simd.hpp"
#include "lte/qam.hpp"
#include "lte/sequences.hpp"

namespace {

using namespace lscatter::dsp;

// Every tier this binary + CPU can actually run (always includes scalar).
std::vector<SimdTier> supported_tiers() {
  std::vector<SimdTier> tiers;
  for (const SimdTier t : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (simd_tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

// Restores the active tier on scope exit so a test flipping the global
// dispatch cannot leak into later tests in the same process.
struct TierGuard {
  SimdTier prev = simd_tier();
  ~TierGuard() { set_simd_tier(prev); }
};

// The FFT sizes of every LTE numerology the CellConfig table carries
// (1.4 through 20 MHz); 1536 exercises the Bluestein path and with it
// the cmul64 spectral-product kernel.
constexpr std::size_t kLteFftSizes[] = {128, 256, 512, 1024, 1536, 2048};

float max_rel_err(const cvec& ref, const cvec& got) {
  EXPECT_EQ(ref.size(), got.size());
  float scale = 0.0f;
  for (const cf32 v : ref) scale = std::max(scale, std::abs(v));
  EXPECT_GT(scale, 0.0f);
  float err = 0.0f;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, std::abs(ref[i] - got[i]));
  }
  return err / scale;
}

cvec random_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  cvec v(n);
  for (auto& x : v) x = rng.complex_normal();
  return v;
}

// Zadoff-Chu input stretched/truncated to n: constant modulus with fast
// phase rotation — the structured input the receive chain actually feeds
// the FFT (PSS replicas), and a good catch for twiddle-sign mistakes.
cvec zc_input(std::size_t n) {
  const lscatter::dsp::cvec zc = lscatter::lte::zadoff_chu(25, 839);
  cvec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = zc[i % zc.size()];
  return v;
}

TEST(SimdDispatch, SpecResolvesNamedTier) {
  EXPECT_EQ(resolve_simd_tier("scalar"), SimdTier::kScalar);
  // "avx2" is the AVX2 tier where the host runs it, scalar elsewhere.
  EXPECT_EQ(resolve_simd_tier("avx2"),
            simd_tier_supported(SimdTier::kAvx2) ? SimdTier::kAvx2
                                                 : SimdTier::kScalar);
}

TEST(SimdDispatch, AutoNeverPicksUnsupportedTier) {
  for (const char* spec : {static_cast<const char*>(nullptr), "", "auto"}) {
    const SimdTier t = resolve_simd_tier(spec);
    EXPECT_EQ(t, simd_best_supported());
    EXPECT_TRUE(simd_tier_supported(t));
  }
}

#if LSCATTER_CHECKS_ENABLED
TEST(SimdDispatch, UnknownSpecIsAContractViolation) {
  const lscatter::core::contracts::ScopedFailureMode mode(
      lscatter::core::contracts::FailureMode::kThrow);
  for (const char* spec : {"avx512", "sse2"}) {
    EXPECT_THROW(resolve_simd_tier(spec), lscatter::core::ContractViolation)
        << spec;
  }
}
#endif

TEST(SimdDispatch, TablesReportTheirOwnTier) {
  for (const SimdTier t : supported_tiers()) {
    EXPECT_EQ(simd_kernels(t).tier, t);
    EXPECT_NE(simd_kernels(t).fft_radix2, nullptr);
    EXPECT_NE(simd_kernels(t).corr_mac, nullptr);
    EXPECT_NE(simd_kernels(t).qam_demap64, nullptr);
  }
}

TEST(SimdDispatch, SetTierInstallsSupportedTierAndSticks) {
  TierGuard guard;
  for (const SimdTier t : supported_tiers()) {
    EXPECT_EQ(set_simd_tier(t), t);
    EXPECT_EQ(simd_tier(), t);
    EXPECT_EQ(simd_kernels().tier, t);
  }
}

TEST(SimdEquivalence, FftForwardAndInverseAtEveryLteSize) {
  TierGuard guard;
  for (const std::size_t n : kLteFftSizes) {
    // Scalar reference spectra.
    set_simd_tier(SimdTier::kScalar);
    const cvec rand_in = random_input(n, 0x5eed0000 + n);
    const cvec zc_in = zc_input(n);
    const cvec rand_ref = fft(rand_in);
    const cvec zc_ref = fft(zc_in);
    const cvec rt_ref = ifft(rand_ref);

    for (const SimdTier t : supported_tiers()) {
      set_simd_tier(t);
      EXPECT_LE(max_rel_err(rand_ref, fft(rand_in)), 1e-4f)
          << "tier=" << to_string(t) << " n=" << n << " (random)";
      EXPECT_LE(max_rel_err(zc_ref, fft(zc_in)), 1e-4f)
          << "tier=" << to_string(t) << " n=" << n << " (Zadoff-Chu)";
      EXPECT_LE(max_rel_err(rt_ref, ifft(rand_ref)), 1e-4f)
          << "tier=" << to_string(t) << " n=" << n << " (inverse)";
    }
  }
}

TEST(SimdEquivalence, CorrMacMatchesScalarIncludingRaggedTails) {
  // Lengths straddling every vector width and remainder combination.
  for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 15u, 64u, 513u}) {
    const cvec s = random_input(m, 0xc0de00 + m);
    const cvec p = zc_input(m);
    double ref_r = 0.0, ref_i = 0.0;
    simd_kernels(SimdTier::kScalar)
        .corr_mac(s.data(), p.data(), m, &ref_r, &ref_i);
    const double scale = std::max(1.0, std::hypot(ref_r, ref_i));
    for (const SimdTier t : supported_tiers()) {
      double r = 0.0, i = 0.0;
      simd_kernels(t).corr_mac(s.data(), p.data(), m, &r, &i);
      EXPECT_NEAR(r, ref_r, 1e-4 * scale)
          << "tier=" << to_string(t) << " m=" << m;
      EXPECT_NEAR(i, ref_i, 1e-4 * scale)
          << "tier=" << to_string(t) << " m=" << m;
    }
  }
}

TEST(SimdEquivalence, Cmul64MatchesScalar) {
  for (const std::size_t n : {1u, 2u, 3u, 6u, 128u, 1536u}) {
    Rng rng(0xab00 + n);
    std::vector<cf64> x(n), h(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = cf64{rng.normal(), rng.normal()};
      h[i] = cf64{rng.normal(), rng.normal()};
    }
    std::vector<cf64> ref = x;
    simd_kernels(SimdTier::kScalar).cmul64(ref.data(), h.data(), n);
    for (const SimdTier t : supported_tiers()) {
      std::vector<cf64> got = x;
      simd_kernels(t).cmul64(got.data(), h.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(std::abs(ref[i] - got[i]), 0.0, 1e-10)
            << "tier=" << to_string(t) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdEquivalence, ConjMulSumAbsAndPatternSumsMatchScalar) {
  for (const std::size_t n : {1u, 3u, 4u, 7u, 8u, 100u, 1023u}) {
    const cvec a = random_input(n, 0x11a0 + n);
    const cvec b = random_input(n, 0x22b0 + n);
    Rng prng(0x33c0 + n);
    std::vector<std::uint8_t> pattern(n);
    for (auto& v : pattern) v = static_cast<std::uint8_t>(prng.next_u32() & 1);

    const SimdKernels& sc = simd_kernels(SimdTier::kScalar);
    cvec z_ref(n);
    sc.conj_mul(a.data(), b.data(), z_ref.data(), n);
    double sr = 0, si = 0, sabs = 0;
    sc.sum_abs(a.data(), n, &sr, &si, &sabs);
    double pr = 0, pi = 0, ar = 0, ai = 0, pabs = 0;
    sc.pattern_sums(a.data(), pattern.data(), n, &pr, &pi, &ar, &ai, &pabs);

    for (const SimdTier t : supported_tiers()) {
      const SimdKernels& k = simd_kernels(t);
      cvec z(n);
      k.conj_mul(a.data(), b.data(), z.data(), n);
      EXPECT_LE(max_rel_err(z_ref, z), 1e-4f) << "tier=" << to_string(t);

      double r = 0, i = 0, abs_sum = 0;
      k.sum_abs(a.data(), n, &r, &i, &abs_sum);
      const double tol = 1e-4 * std::max(1.0, sabs);
      EXPECT_NEAR(r, sr, tol) << "tier=" << to_string(t) << " n=" << n;
      EXPECT_NEAR(i, si, tol) << "tier=" << to_string(t) << " n=" << n;
      EXPECT_NEAR(abs_sum, sabs, tol)
          << "tier=" << to_string(t) << " n=" << n;

      double gr = 0, gi = 0, hr = 0, hi = 0, gabs = 0;
      k.pattern_sums(a.data(), pattern.data(), n, &gr, &gi, &hr, &hi, &gabs);
      EXPECT_NEAR(gr, pr, tol) << "tier=" << to_string(t) << " n=" << n;
      EXPECT_NEAR(gi, pi, tol) << "tier=" << to_string(t) << " n=" << n;
      EXPECT_NEAR(hr, ar, tol) << "tier=" << to_string(t) << " n=" << n;
      EXPECT_NEAR(hi, ai, tol) << "tier=" << to_string(t) << " n=" << n;
      EXPECT_NEAR(gabs, pabs, tol) << "tier=" << to_string(t) << " n=" << n;
    }
  }
}

TEST(SimdEquivalence, QamHardDecisionsAreBitExactAcrossTiers) {
  using lscatter::lte::Modulation;
  const std::size_t n = 997;  // odd on purpose: exercises every tail path

  for (const Modulation m : {Modulation::kQpsk, Modulation::kQam16,
                             Modulation::kQam64}) {
    const std::size_t bps = lscatter::lte::bits_per_symbol(m);
    // Noisy constellation points plus adversarial exact values: origin,
    // signed zeros, and symbols sitting exactly on decision thresholds.
    Rng rng(0x9a9a + bps);
    std::vector<std::uint8_t> tx_bits(n * bps);
    for (auto& v : tx_bits) v = static_cast<std::uint8_t>(rng.next_u32() & 1);
    cvec sym = lscatter::lte::qam_modulate(tx_bits, m);
    for (auto& v : sym) v += rng.complex_normal(0.05);
    sym[0] = cf32{0.0f, 0.0f};
    sym[1] = cf32{-0.0f, 0.0f};
    sym[2] = cf32{0.0f, -0.0f};
    sym[3] = cf32{2.0f / 3.16227766016837952f, -2.0f / 3.16227766016837952f};
    sym[4] = cf32{4.0f / 6.48074069840786023f, 2.0f / 6.48074069840786023f};

    std::vector<std::uint8_t> ref(n * bps, 0xFF);
    lscatter::lte::qam_demodulate_into(sym, m, ref);
    for (const SimdTier t : supported_tiers()) {
      std::vector<std::uint8_t> got(n * bps, 0xAA);
      const SimdKernels& k = simd_kernels(t);
      switch (m) {
        case Modulation::kQpsk:
          k.qam_demap_qpsk(sym.data(), n, got.data());
          break;
        case Modulation::kQam16:
          k.qam_demap16(sym.data(), n, got.data());
          break;
        case Modulation::kQam64:
          k.qam_demap64(sym.data(), n, got.data());
          break;
      }
      EXPECT_EQ(ref, got) << "tier=" << to_string(t) << " bps=" << bps;
    }
  }
}

TEST(SimdEquivalence, BoxMullerAddIsBitExactAcrossTiers) {
  // Chosen uniforms: u1 at both ends of its range and in the middle; u2
  // at 0 (sin = 0 exactly), at its top, and one ulp either side of every
  // k/8 (the zeros of sin and cos and the octant edges their argument
  // reductions switch at). Random pairs after them keep most lanes on
  // the vector path.
  std::vector<double> u2_edges = {0.0, 0x1p-53, 1.0 - 0x1p-53};
  for (int k = 1; k < 8; ++k) {
    for (const double d : {-0x1p-53, 0.0, 0x1p-53}) {
      u2_edges.push_back(k / 8.0 + d);
    }
  }
  std::vector<double> u1;
  std::vector<double> u2;
  for (const double a : {0x1p-53, 0.5, 1.0 - 0x1p-53}) {
    for (const double b : u2_edges) {
      u1.push_back(a);
      u2.push_back(b);
    }
  }
  Rng rng(0xB0C5);
  for (int i = 0; i < 509; ++i) {
    double a = 0.0;
    do {
      a = rng.uniform();
    } while (a <= 1e-300);
    u1.push_back(a);
    u2.push_back(rng.uniform());
  }
  const cvec base = random_input(u1.size(), 0xA11);

  for (const double scale : {1.0, 1e-20}) {
    // Shifting the start moves every chosen input through each lane of
    // the 4-wide body; the lengths are not multiples of 4 at shifts 1-3.
    for (std::size_t shift = 0; shift < 4; ++shift) {
      const std::size_t n = u1.size() - shift;
      cvec ref(base.begin() + static_cast<std::ptrdiff_t>(shift), base.end());
      simd_kernels(SimdTier::kScalar)
          .box_muller_add(u1.data() + shift, u2.data() + shift, n, scale,
                          ref.data());
      for (const SimdTier t : supported_tiers()) {
        cvec got(base.begin() + static_cast<std::ptrdiff_t>(shift),
                 base.end());
        simd_kernels(t).box_muller_add(u1.data() + shift, u2.data() + shift,
                                       n, scale, got.data());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (std::memcmp(&ref[i], &got[i], sizeof(cf32)) != 0) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u) << "tier=" << to_string(t)
                                  << " scale=" << scale << " shift=" << shift;
      }
    }
  }
}

TEST(SimdEquivalence, QamRoundTripRecoversBitsOnEveryTier) {
  using lscatter::lte::Modulation;
  TierGuard guard;
  for (const Modulation m : {Modulation::kQpsk, Modulation::kQam16,
                             Modulation::kQam64}) {
    const std::size_t bps = lscatter::lte::bits_per_symbol(m);
    Rng rng(0x7171 + bps);
    std::vector<std::uint8_t> tx(240 * bps);
    for (auto& v : tx) v = static_cast<std::uint8_t>(rng.next_u32() & 1);
    const cvec sym = lscatter::lte::qam_modulate(tx, m);
    for (const SimdTier t : supported_tiers()) {
      set_simd_tier(t);
      EXPECT_EQ(lscatter::lte::qam_demodulate(sym, m), tx)
          << "tier=" << to_string(t);
    }
  }
}

}  // namespace
