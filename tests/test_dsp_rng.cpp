// RNG: determinism, distribution moments, stream independence, and the
// bulk AWGN draw's bit-for-bit agreement with the per-sample loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/simd.hpp"

namespace {

using lscatter::dsp::cf32;
using lscatter::dsp::cvec;
using lscatter::dsp::Rng;
using lscatter::dsp::SimdTier;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123, 5);
  Rng b(123, 5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIsInRangeWithCorrectMoments) {
  Rng rng(7);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 5e-3);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 5e-3);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 1e-2);
  EXPECT_NEAR(sum2 / n, 1.0, 2e-2);
}

TEST(Rng, ComplexNormalVariance) {
  Rng rng(13);
  double power = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    power += std::norm(rng.complex_normal(2.5));
  }
  EXPECT_NEAR(power / n, 2.5, 0.05);
}

// The loop Rng::add_complex_normal replaces: the oracle.
void add_per_sample(cvec& x, double variance, Rng& rng) {
  for (auto& v : x) v += rng.complex_normal(variance);
}

// Bulk draw vs oracle from equal generators on an equal buffer: the
// count of samples whose bits differ, plus one if the generators' next
// draws differ afterwards.
std::size_t bulk_mismatches(const Rng& gen, const cvec& x, double variance) {
  Rng bulk = gen;
  Rng oracle = gen;
  cvec got = x;
  cvec want = x;
  bulk.add_complex_normal(got, variance);
  add_per_sample(want, variance, oracle);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(cf32)) != 0) ++mismatches;
  }
  if (bulk.normal() != oracle.normal()) ++mismatches;
  if (bulk.next_u64() != oracle.next_u64()) ++mismatches;
  return mismatches;
}

std::vector<SimdTier> supported_tiers() {
  std::vector<SimdTier> tiers;
  for (const SimdTier t : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (lscatter::dsp::simd_tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

struct TierGuard {
  SimdTier prev = lscatter::dsp::simd_tier();
  ~TierGuard() { lscatter::dsp::set_simd_tier(prev); }
};

constexpr double kVariances[] = {1.0, 1e-3, 1e-9, 1e-20};

TEST(RngBulkNormal, MatchesPerSampleLoopAtEveryLength) {
  // Lengths around the 4-wide kernel body and the 256-sample draw block,
  // plus one 20 MHz subframe.
  const std::size_t lengths[] = {0, 1, 3, 4, 5, 255, 256, 257, 30720};
  TierGuard guard;
  for (const SimdTier t : supported_tiers()) {
    lscatter::dsp::set_simd_tier(t);
    for (const std::uint64_t seed : {1ULL, 2020ULL, 0xDEADBEEFULL}) {
      for (const double variance : kVariances) {
        for (const std::size_t n : lengths) {
          Rng fill(seed ^ n);
          cvec x(n);
          for (auto& v : x) v = fill.complex_normal(0.5);
          EXPECT_EQ(bulk_mismatches(Rng(seed), x, variance), 0u)
              << "tier=" << to_string(t) << " seed=" << seed
              << " variance=" << variance << " n=" << n;
        }
      }
    }
  }
}

TEST(RngBulkNormal, MatchesPerSampleLoopOverManySubframes) {
  // ~1.2M samples per variance per tier, one subframe at a time from one
  // running generator, as a Monte-Carlo drop draws them.
  TierGuard guard;
  for (const SimdTier t : supported_tiers()) {
    lscatter::dsp::set_simd_tier(t);
    for (const double variance : kVariances) {
      Rng bulk(0x5EED + static_cast<std::uint64_t>(t));
      Rng oracle = bulk;
      std::size_t mismatches = 0;
      cvec got(30720);
      cvec want(30720);
      for (int sf = 0; sf < 40; ++sf) {
        std::fill(got.begin(), got.end(), cf32{0.25f, -0.5f});
        std::fill(want.begin(), want.end(), cf32{0.25f, -0.5f});
        bulk.add_complex_normal(got, variance);
        add_per_sample(want, variance, oracle);
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (std::memcmp(&got[i], &want[i], sizeof(cf32)) != 0) ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u)
          << "tier=" << to_string(t) << " variance=" << variance;
      EXPECT_EQ(bulk.next_u64(), oracle.next_u64());
    }
  }
}

TEST(RngBulkNormal, MatchesPerSampleLoopWithACachedNormal) {
  // A cached deviate shifts the (cos, sin) pairing by one component.
  TierGuard guard;
  for (const SimdTier t : supported_tiers()) {
    lscatter::dsp::set_simd_tier(t);
    for (const std::size_t n : {1u, 4u, 257u, 1000u}) {
      Rng gen(77 + n);
      (void)gen.normal();  // leaves the sin deviate cached
      EXPECT_EQ(bulk_mismatches(gen, cvec(n), 1e-3), 0u)
          << "tier=" << to_string(t) << " n=" << n;
    }
  }
}

TEST(Rng, UniformIntCoversRangeUnbiased) {
  Rng rng(17);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[rng.uniform_int(7)]++;
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, 0.08 * n / 7.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, BitsAreBalanced) {
  Rng rng(29);
  const auto bits = rng.bits(100000);
  std::size_t ones = 0;
  for (const auto b : bits) {
    ASSERT_LE(b, 1);
    ones += b;
  }
  EXPECT_NEAR(static_cast<double>(ones), 50000.0, 1500.0);
}

TEST(DeriveSeed, PureFunctionOfInputs) {
  using lscatter::dsp::derive_seed;
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_EQ(derive_seed(42, 1000), derive_seed(42, 1000));
  EXPECT_NE(derive_seed(42, 0), derive_seed(42, 1));
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

TEST(DeriveSeed, DistinctIndicesYieldDistinctSeeds) {
  using lscatter::dsp::derive_seed;
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seen.insert(derive_seed(0xC0FFEE, i));
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(DeriveSeed, AdjacentIndicesAvalanche) {
  // SplitMix64's finalizer should flip roughly half the output bits
  // between consecutive drop indices — a seed like base + k*index would
  // fail this badly and correlate the PCG streams it feeds.
  using lscatter::dsp::derive_seed;
  double total_flips = 0.0;
  const int n = 2048;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t a = derive_seed(99, static_cast<std::uint64_t>(i));
    const std::uint64_t b =
        derive_seed(99, static_cast<std::uint64_t>(i) + 1);
    total_flips += static_cast<double>(std::popcount(a ^ b));
  }
  EXPECT_NEAR(total_flips / n, 32.0, 1.5);
}

TEST(DeriveSeed, DerivedStreamsAreUncorrelated) {
  // Same statistic as ForkedStreamsAreIndependent: streams seeded from
  // adjacent drop indices must not co-move.
  using lscatter::dsp::derive_seed;
  Rng a(derive_seed(7, 0));
  Rng b(derive_seed(7, 1));
  double corr = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    corr += (a.uniform() - 0.5) * (b.uniform() - 0.5);
  }
  EXPECT_NEAR(corr / n, 0.0, 2e-3);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(31);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  // Correlation between the forks should be negligible.
  double corr = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    corr += (child1.uniform() - 0.5) * (child2.uniform() - 0.5);
  }
  EXPECT_NEAR(corr / n, 0.0, 2e-3);
}

}  // namespace
