// FFT correctness: round-trip identity, known transforms, Parseval, the
// Bluestein path (K=1536), and fftshift.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "dsp/simd.hpp"

namespace {

using lscatter::dsp::cf32;
using lscatter::dsp::cvec;
using lscatter::dsp::FftPlan;
using lscatter::dsp::Rng;

double max_error(const cvec& a, const cvec& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, static_cast<double>(std::abs(a[i] - b[i])));
  }
  return m;
}

TEST(Fft, DeltaTransformsToOnes) {
  FftPlan plan(64);
  cvec x(64, cf32{});
  x[0] = cf32{1.0f, 0.0f};
  const cvec X = plan.forward(x);
  for (const cf32 v : X) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-5);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-5);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 128;
  FftPlan plan(n);
  cvec x(n);
  const std::size_t tone = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * M_PI * static_cast<double>(tone * i) /
                       static_cast<double>(n);
    x[i] = cf32{static_cast<float>(std::cos(ang)),
                static_cast<float>(std::sin(ang))};
  }
  const cvec X = plan.forward(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == tone) {
      EXPECT_NEAR(std::abs(X[k]), static_cast<double>(n), 1e-3);
    } else {
      EXPECT_NEAR(std::abs(X[k]), 0.0, 1e-3);
    }
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseOfForwardIsIdentity) {
  const std::size_t n = GetParam();
  FftPlan plan(n);
  Rng rng(n);
  cvec x(n);
  for (auto& v : x) v = rng.complex_normal();
  const cvec y = plan.inverse(plan.forward(x));
  EXPECT_LT(max_error(x, y), 1e-4) << "n=" << n;
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  FftPlan plan(n);
  Rng rng(n + 1);
  cvec x(n);
  for (auto& v : x) v = rng.complex_normal();
  const cvec X = plan.forward(x);
  const double time_energy = lscatter::dsp::energy(x);
  const double freq_energy =
      lscatter::dsp::energy(X) / static_cast<double>(n);
  EXPECT_NEAR(freq_energy, time_energy, 1e-3 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(AllLteSizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 16, 63, 128, 256, 512,
                                           1024, 1536, 2048, 3000));

TEST(Fft, BluesteinMatchesDirectDft) {
  const std::size_t n = 12;  // non power of two
  FftPlan plan(n);
  Rng rng(7);
  cvec x(n);
  for (auto& v : x) v = rng.complex_normal();
  const cvec X = plan.forward(x);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{};
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = -2.0 * M_PI * static_cast<double>(i * k) /
                         static_cast<double>(n);
      acc += std::complex<double>(x[i].real(), x[i].imag()) *
             std::complex<double>(std::cos(ang), std::sin(ang));
    }
    EXPECT_NEAR(X[k].real(), acc.real(), 1e-4);
    EXPECT_NEAR(X[k].imag(), acc.imag(), 1e-4);
  }
}

TEST(Fft, FftShiftCentersDc) {
  cvec x = {cf32{0, 0}, cf32{1, 0}, cf32{2, 0}, cf32{3, 0}};
  const cvec y = lscatter::dsp::fftshift(x);
  EXPECT_FLOAT_EQ(y[0].real(), 2.0f);
  EXPECT_FLOAT_EQ(y[1].real(), 3.0f);
  EXPECT_FLOAT_EQ(y[2].real(), 0.0f);
  EXPECT_FLOAT_EQ(y[3].real(), 1.0f);
}

TEST(Fft, OneShotHelpersUseCachedPlans) {
  Rng rng(3);
  cvec x(256);
  for (auto& v : x) v = rng.complex_normal();
  const cvec y = lscatter::dsp::ifft(lscatter::dsp::fft(x));
  EXPECT_LT(max_error(x, y), 1e-4);
}

TEST(Fft, CachedPlanStatsCountHitsAndMisses) {
  const auto before = lscatter::dsp::fft_runtime_stats();
  // An odd size nothing else in the test binary asks for: first call is a
  // miss, every later call a hit.
  const std::size_t n = 4099;
  lscatter::dsp::cached_fft_plan(n);
  lscatter::dsp::cached_fft_plan(n);
  lscatter::dsp::cached_fft_plan(n);
  const auto after = lscatter::dsp::fft_runtime_stats();
  EXPECT_EQ(after.plan_cache_misses, before.plan_cache_misses + 1);
  EXPECT_GE(after.plan_cache_hits, before.plan_cache_hits + 2);
}

// The workspace transforms must be deterministic: the same input through
// the same plan gives bit-identical output no matter which Workspace is
// used, how often it has been used, or what sizes it served before. The
// sim_pool serial-vs-parallel bit-identity guarantee rests on this.
class FftWorkspace : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftWorkspace, RepeatedCallsAreBitIdentical) {
  const std::size_t n = GetParam();
  FftPlan plan(n);
  Rng rng(n + 17);
  cvec x(n);
  for (auto& v : x) v = rng.complex_normal();

  FftPlan::Workspace ws = plan.make_workspace();
  cvec first(x);
  plan.forward_inplace(first, ws);
  for (int rep = 0; rep < 3; ++rep) {
    cvec again(x);
    plan.forward_inplace(again, ws);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(again[i], first[i]) << "n=" << n << " rep=" << rep
                                    << " i=" << i;
    }
  }

  // The thread-local-scratch overload and the allocating overload go
  // through the same kernel: also bit-identical.
  cvec tls(x);
  plan.forward_inplace(tls);
  const cvec alloc = plan.forward(x);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(tls[i], first[i]) << "i=" << i;
    ASSERT_EQ(alloc[i], first[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PowTwoAndBluestein, FftWorkspace,
                         ::testing::Values(128, 512, 1536, 2048, 3000));

TEST(Fft, OneWorkspaceServesMixedSizesBitIdentically) {
  // One workspace bounced between Bluestein and power-of-two plans of
  // different lengths: growth and buffer reuse must not leak state
  // between transforms. Reference outputs come from fresh workspaces.
  const std::size_t sizes[] = {1536, 128, 3000, 2048, 1536, 512};
  FftPlan::Workspace shared;
  bool shared_initialized = false;
  for (const std::size_t n : sizes) {
    FftPlan plan(n);
    if (!shared_initialized) {
      shared = plan.make_workspace();
      shared_initialized = true;
    }
    Rng rng(n + 29);
    cvec x(n);
    for (auto& v : x) v = rng.complex_normal();

    cvec via_shared(x);
    plan.forward_inplace(via_shared, shared);
    FftPlan::Workspace fresh = plan.make_workspace();
    cvec via_fresh(x);
    plan.forward_inplace(via_fresh, fresh);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(via_shared[i], via_fresh[i]) << "n=" << n << " i=" << i;
    }

    cvec inv_shared(via_shared);
    plan.inverse_inplace(inv_shared, shared);
    EXPECT_LT(max_error(x, inv_shared), 1e-4) << "n=" << n;
  }
}

TEST(Fft, WorkspaceBytesAreAccountedAndReleased) {
  const auto before = lscatter::dsp::fft_runtime_stats();
  {
    FftPlan plan(1536);  // Bluestein: needs both the a and u buffers
    FftPlan::Workspace ws = plan.make_workspace();
    EXPECT_GT(ws.bytes(), 0u);
    const auto during = lscatter::dsp::fft_runtime_stats();
    EXPECT_GE(during.workspace_bytes, before.workspace_bytes + ws.bytes());
    EXPECT_GE(during.workspace_bytes_peak, during.workspace_bytes);
  }
  const auto after = lscatter::dsp::fft_runtime_stats();
  EXPECT_EQ(after.workspace_bytes, before.workspace_bytes);
}

// The cf32 transforms gather in bit-reversed order while they widen to
// cf64; the cf64 transforms permute in place first (Bluestein: inside
// its convolution). Both must produce the same bits, on every tier.
TEST(Fft, Cf32TransformsEqualWidenedCf64TransformsOnEveryTier) {
  using lscatter::dsp::cf64;
  using lscatter::dsp::SimdTier;
  const SimdTier prev = lscatter::dsp::simd_tier();
  for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (!lscatter::dsp::simd_tier_supported(tier)) continue;
    ASSERT_EQ(lscatter::dsp::set_simd_tier(tier), tier);
    for (const std::size_t n : {128, 256, 512, 1024, 1536, 2048}) {
      const FftPlan& plan = lscatter::dsp::cached_fft_plan(n);
      Rng rng(n + 7);
      cvec x(n);
      for (auto& v : x) v = rng.complex_normal();
      for (const bool invert : {false, true}) {
        cvec narrow(x);
        if (invert) {
          plan.inverse_inplace(narrow);
        } else {
          plan.forward_inplace(narrow);
        }
        std::vector<cf64> wide(n);
        for (std::size_t i = 0; i < n; ++i) {
          wide[i] = cf64{x[i].real(), x[i].imag()};
        }
        if (invert) {
          plan.inverse_inplace64(wide);
        } else {
          plan.forward_inplace64(wide);
        }
        cvec back(n);
        for (std::size_t i = 0; i < n; ++i) {
          back[i] = cf32{static_cast<float>(wide[i].real()),
                         static_cast<float>(wide[i].imag())};
        }
        EXPECT_EQ(std::memcmp(narrow.data(), back.data(), n * sizeof(cf32)),
                  0)
            << "n=" << n << " invert=" << invert
            << " tier=" << lscatter::dsp::to_string(tier);
      }
    }
  }
  lscatter::dsp::set_simd_tier(prev);
}

}  // namespace
