// Phase-offset elimination (Eq. 5/6) and modulation-offset determination
// (Eq. 7): unit behaviour, the frequency-domain form from the paper, a
// brute-force Eq. 7 equivalence check on a tiny instance, the FFT search
// against the direct sliding search it replaced (bit for bit, every SIMD
// tier), and the non-finite contract.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "core/framing.hpp"
#include "core/modulation_offset.hpp"
#include "core/phase_offset.hpp"
#include "core/streaming_receiver.hpp"
#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "dsp/simd.hpp"
#include "lte/enodeb.hpp"
#include "tag/modulator.hpp"
#include "tag/tag_controller.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;
using dsp::cvec;

TEST(PhaseOffset, EstimateGainRecoversComplexGain) {
  dsp::Rng rng(1);
  const cf32 g{0.3f, -0.4f};
  cvec z;
  double ref_energy = 0.0;
  for (int i = 0; i < 500; ++i) {
    const cf32 x = rng.complex_normal();
    z.push_back(g * cf32{std::norm(x), 0.0f});
    ref_energy += std::norm(x);
  }
  const cf32 est = core::estimate_gain(z, ref_energy);
  EXPECT_NEAR(est.real(), g.real(), 0.01);
  EXPECT_NEAR(est.imag(), g.imag(), 0.01);
}

TEST(PhaseOffset, DerotateAlignsToRealAxis) {
  cvec z = {cf32{0.0f, 2.0f}, cf32{0.0f, 4.0f}};
  core::derotate(z, cf32{0.0f, 1.0f});
  EXPECT_NEAR(z[0].real(), 2.0f, 1e-5);
  EXPECT_NEAR(z[0].imag(), 0.0f, 1e-5);
  EXPECT_NEAR(z[1].real(), 4.0f, 1e-5);
}

TEST(PhaseOffset, Eq6FrequencyDomainCancelsCommonPhase) {
  // Build Y_k = e^{j phi} * A_k for random A; the products Y_k conj(Y_r)
  // must not depend on phi (paper Eq. 6).
  dsp::Rng rng(2);
  cvec a(64);
  for (auto& v : a) v = rng.complex_normal();

  const auto products_with_phi = [&](double phi) {
    const cf32 rot{static_cast<float>(std::cos(phi)),
                   static_cast<float>(std::sin(phi))};
    cvec y(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) y[i] = rot * a[i];
    return core::eq6_reference_products(y, 5);
  };

  const cvec p0 = products_with_phi(0.0);
  const cvec p1 = products_with_phi(1.234);
  for (std::size_t k = 0; k < p0.size(); ++k) {
    EXPECT_NEAR(p0[k].real(), p1[k].real(), 1e-3);
    EXPECT_NEAR(p0[k].imag(), p1[k].imag(), 1e-3);
  }
}

class OffsetSweep : public ::testing::TestWithParam<std::ptrdiff_t> {};

TEST_P(OffsetSweep, FindsInjectedOffsetExactly) {
  const std::ptrdiff_t true_offset = GetParam();
  dsp::Rng rng(3);
  const std::size_t k = 2048;
  const std::size_t n = 1200;
  const std::size_t nominal = (k - n) / 2;

  std::vector<std::uint8_t> pattern(n);
  for (auto& b : pattern) b = static_cast<std::uint8_t>(rng.next_u32() & 1);

  // z products: |x|^2 * g * (+-1 per pattern), pattern shifted by
  // true_offset; filler +1 elsewhere.
  const cf32 g{0.8f, 0.6f};
  cvec z(k);
  for (std::size_t i = 0; i < k; ++i) {
    const float mag = static_cast<float>(std::norm(rng.complex_normal()));
    const std::ptrdiff_t rel =
        static_cast<std::ptrdiff_t>(i) -
        (static_cast<std::ptrdiff_t>(nominal) + true_offset);
    float sign = 1.0f;
    if (rel >= 0 && rel < static_cast<std::ptrdiff_t>(n)) {
      sign = pattern[static_cast<std::size_t>(rel)] ? 1.0f : -1.0f;
    }
    z[i] = g * mag * sign + rng.complex_normal(1e-6);
  }

  core::OffsetSearch search;
  search.range_units = 300;
  const auto result =
      core::find_modulation_offset(z, pattern, nominal, search);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->offset_units, true_offset);
  EXPECT_GT(result->metric, 0.8f);
  // The gain estimate at the peak carries the injected phase.
  const double est_phase = std::atan2(result->gain.imag(),
                                      result->gain.real());
  EXPECT_NEAR(est_phase, std::atan2(0.6, 0.8), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Offsets, OffsetSweep,
                         ::testing::Values(-250, -61, -3, 0, 1, 40, 137,
                                           299));

TEST(OffsetSearch, RejectsPureNoise) {
  dsp::Rng rng(4);
  cvec z(2048);
  for (auto& v : z) v = rng.complex_normal();
  std::vector<std::uint8_t> pattern(1200);
  for (auto& b : pattern) b = static_cast<std::uint8_t>(rng.next_u32() & 1);
  const auto result =
      core::find_modulation_offset(z, pattern, 424, core::OffsetSearch{});
  EXPECT_FALSE(result.has_value());
}

TEST(Eq7, BruteForceArgMinMatchesPerUnitDecisions) {
  // Tiny instance: K = 16 units, N = 4 modulated units, brute-force the
  // 2^4 theta sequences of Eq. 7 and check the per-unit slicer picks the
  // same winner.
  dsp::Rng rng(5);
  const std::size_t k = 16;
  const std::size_t n = 4;
  const std::size_t start = 6;
  const std::vector<std::uint8_t> true_bits = {1, 0, 0, 1};
  const cf32 g{0.6f, 0.8f};  // includes the phase offset e^{j phi}

  cvec x(k);
  for (auto& v : x) v = rng.complex_normal();
  cvec r(k);
  for (std::size_t i = 0; i < k; ++i) {
    float sign = 1.0f;
    if (i >= start && i < start + n) sign = true_bits[i - start] ? 1 : -1;
    r[i] = g * sign * x[i] + rng.complex_normal(1e-4);
  }

  // Brute force over all theta sequences: minimize sum |r - g_hat *
  // e^{j theta} x| with g_hat estimated from the filler units.
  cvec z(k);
  for (std::size_t i = 0; i < k; ++i) z[i] = r[i] * std::conj(x[i]);
  cvec z_filler;
  double e_filler = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (i < start || i >= start + n) {
      z_filler.push_back(z[i]);
      e_filler += std::norm(x[i]);
    }
  }
  const cf32 g_hat = core::estimate_gain(z_filler, e_filler);

  double best_cost = 1e18;
  std::vector<std::uint8_t> best_bits;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    double cost = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const float sign = (mask >> i) & 1u ? 1.0f : -1.0f;
      cost += std::norm(r[start + i] - g_hat * sign * x[start + i]);
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_bits.assign(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        best_bits[i] = static_cast<std::uint8_t>((mask >> i) & 1u);
      }
    }
  }
  EXPECT_EQ(best_bits, true_bits);

  // Per-unit slicing (the tractable form) must agree.
  for (std::size_t i = 0; i < n; ++i) {
    const cf32 v = z[start + i] * std::conj(g_hat);
    EXPECT_EQ(v.real() >= 0.0f ? 1 : 0, true_bits[i]) << "unit " << i;
  }
}

// ---- FFT search vs the direct search -----------------------------------

// The direct sliding search, kept verbatim as the oracle: every offset in
// ascending order, scored by pattern_sums, first strict maximum wins.
std::optional<core::OffsetResult> direct_search(
    std::span<const cf32> z, std::span<const std::uint8_t> pattern,
    std::ptrdiff_t nominal_start, const core::OffsetSearch& search) {
  const std::size_t n = pattern.size();
  const auto lo = -static_cast<std::ptrdiff_t>(search.range_units);
  const auto hi = static_cast<std::ptrdiff_t>(search.range_units);
  core::OffsetResult best;
  bool found = false;
  const dsp::SimdKernels& k = dsp::simd_kernels();
  for (std::ptrdiff_t d = lo; d <= hi; ++d) {
    const std::ptrdiff_t start = nominal_start + d;
    if (start < 0 ||
        start + static_cast<std::ptrdiff_t>(n) >
            static_cast<std::ptrdiff_t>(z.size())) {
      continue;
    }
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
      best.offset_units = d;
      best.gain = cf32{static_cast<float>(acc_r), static_cast<float>(acc_i)};
    }
  }
  if (!found || best.metric < search.detect_threshold) return std::nullopt;
  return best;
}

bool bit_identical(const std::optional<core::OffsetResult>& a,
                   const std::optional<core::OffsetResult>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->offset_units == b->offset_units &&
         std::memcmp(&a->metric, &b->metric, sizeof(float)) == 0 &&
         std::memcmp(&a->gain, &b->gain, sizeof(cf32)) == 0;
}

std::vector<dsp::SimdTier> supported_tiers() {
  std::vector<dsp::SimdTier> tiers;
  for (const dsp::SimdTier t :
       {dsp::SimdTier::kScalar, dsp::SimdTier::kAvx2}) {
    if (dsp::simd_tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

struct TierGuard {
  dsp::SimdTier prev = dsp::simd_tier();
  ~TierGuard() { dsp::set_simd_tier(prev); }
};

// The six LTE numerologies: FFT size K and modulated units N = 12 N_RB.
struct KN {
  std::size_t k;
  std::size_t n;
};
constexpr KN kLtePairs[] = {{128, 72},   {256, 180},  {512, 300},
                            {1024, 600}, {1536, 900}, {2048, 1200}};

enum class Input {
  kPreamble,     // injected preamble at a random offset and SNR
  kNoise,        // pure noise
  kConstant,     // every window ties exactly
  kAlternating,  // every window ties exactly (sign flips per unit)
  kZeroGap,      // preamble with a zero-filled stretch of the span
  kHuge,         // preamble with a 1e15 segment
  kTiny,         // preamble with a 1e-20 segment
  kHugeThenTiny  // 1e15 then 1e-20: the tiny windows' sums are absorbed
};
constexpr Input kInputs[] = {Input::kPreamble,    Input::kNoise,
                             Input::kConstant,    Input::kAlternating,
                             Input::kZeroGap,     Input::kHuge,
                             Input::kTiny,        Input::kHugeThenTiny};

cvec make_products(Input kind, std::size_t k,
                   std::span<const std::uint8_t> pattern,
                   std::ptrdiff_t nominal, std::size_t range, dsp::Rng& rng) {
  const std::size_t n = pattern.size();
  cvec z(k);
  if (kind == Input::kConstant || kind == Input::kAlternating) {
    const cf32 c = rng.complex_normal();
    for (std::size_t i = 0; i < k; ++i) {
      z[i] = (kind == Input::kAlternating && (i & 1u)) ? -c : c;
    }
    return z;
  }
  if (kind == Input::kNoise) {
    for (auto& v : z) v = rng.complex_normal();
    return z;
  }
  // Preamble at a random offset inside both the range and z, under noise
  // of a variance drawn log-uniformly from 0.01 to 100.
  const auto lo = std::max<std::ptrdiff_t>(
      -static_cast<std::ptrdiff_t>(range), -nominal);
  const auto hi = std::min<std::ptrdiff_t>(
      static_cast<std::ptrdiff_t>(range),
      static_cast<std::ptrdiff_t>(k - n) - nominal);
  const std::ptrdiff_t offset =
      lo + static_cast<std::ptrdiff_t>(
               rng.uniform_int(static_cast<std::uint32_t>(hi - lo + 1)));
  const double noise_var = std::pow(10.0, rng.uniform(-2.0, 2.0));
  const cf32 g = rng.complex_normal();
  for (std::size_t i = 0; i < k; ++i) {
    const std::ptrdiff_t rel =
        static_cast<std::ptrdiff_t>(i) - nominal - offset;
    float sign = 1.0f;
    if (rel >= 0 && rel < static_cast<std::ptrdiff_t>(n)) {
      sign = pattern[static_cast<std::size_t>(rel)] ? 1.0f : -1.0f;
    }
    const float mag = static_cast<float>(std::norm(rng.complex_normal()));
    z[i] = g * mag * sign + rng.complex_normal(noise_var);
  }
  // Distort a random stretch of z.
  const std::size_t a = rng.uniform_int(static_cast<std::uint32_t>(k));
  const std::size_t b =
      a + rng.uniform_int(static_cast<std::uint32_t>(k - a)) + 1;
  const std::size_t mid = a + (b - a) / 2;
  for (std::size_t i = a; i < b; ++i) {
    switch (kind) {
      case Input::kZeroGap: z[i] = cf32{}; break;
      case Input::kHuge: z[i] *= 1e15f; break;
      case Input::kTiny: z[i] *= 1e-20f; break;
      case Input::kHugeThenTiny: z[i] *= i < mid ? 1e15f : 1e-20f; break;
      default: break;
    }
  }
  return z;
}

TEST(OffsetSearchOracle, BitIdenticalToDirectSearchOnEveryTier) {
  TierGuard guard;
  std::size_t cases = 0;
  std::size_t mismatches = 0;
  std::size_t detections = 0;
  for (const dsp::SimdTier tier : supported_tiers()) {
    ASSERT_EQ(dsp::set_simd_tier(tier), tier);
    for (const KN kn : kLtePairs) {
      dsp::Rng rng(1000 + kn.k);
      std::vector<std::uint8_t> pattern(kn.n);
      for (auto& b : pattern) b = static_cast<std::uint8_t>(rng.next_u32() & 1);
      const auto centered = static_cast<std::ptrdiff_t>((kn.k - kn.n) / 2);
      const auto edge = static_cast<std::ptrdiff_t>(kn.k - kn.n);
      for (const std::size_t range : {std::size_t{0}, std::size_t{3},
                                      std::size_t{256}, kn.k}) {
        for (const std::ptrdiff_t nominal : {centered, std::ptrdiff_t{0},
                                             edge}) {
          for (const Input kind : kInputs) {
            for (int rep = 0; rep < 5; ++rep) {
              const cvec z =
                  make_products(kind, kn.k, pattern, nominal, range, rng);
              core::OffsetSearch search;
              search.range_units = range;
              // Threshold 0 exposes the full argmax; the default one
              // checks presence too.
              search.detect_threshold = rep == 0 ? 0.2f : 0.0f;
              const auto want = direct_search(z, pattern, nominal, search);
              const auto got =
                  core::find_modulation_offset(z, pattern, nominal, search);
              ++cases;
              if (want) ++detections;
              if (!bit_identical(want, got)) {
                ++mismatches;
                ADD_FAILURE()
                    << "tier " << dsp::to_string(tier) << " K=" << kn.k
                    << " N=" << kn.n << " range=" << range
                    << " nominal=" << nominal
                    << " input=" << static_cast<int>(kind) << " rep=" << rep
                    << ": direct " << (want ? want->offset_units : -9999)
                    << "/" << (want ? want->metric : -1.0f) << " vs FFT "
                    << (got ? got->offset_units : -9999) << "/"
                    << (got ? got->metric : -1.0f);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
  EXPECT_GT(detections, cases / 2);
}

// ---- non-finite products ------------------------------------------------

// A clean 20 MHz preamble the search finds with a high metric.
cvec clean_preamble_products(std::vector<std::uint8_t>& pattern) {
  dsp::Rng rng(77);
  pattern.resize(1200);
  for (auto& b : pattern) b = static_cast<std::uint8_t>(rng.next_u32() & 1);
  cvec z(2048);
  for (std::size_t i = 0; i < z.size(); ++i) {
    const std::ptrdiff_t rel = static_cast<std::ptrdiff_t>(i) - 424 - 17;
    float sign = 1.0f;
    if (rel >= 0 && rel < 1200) {
      sign = pattern[static_cast<std::size_t>(rel)] ? 1.0f : -1.0f;
    }
    z[i] = cf32{0.6f, -0.8f} * sign + rng.complex_normal(1e-3);
  }
  return z;
}

TEST(OffsetSearch, NonFiniteProductInSpanIsNoDetection) {
  std::vector<std::uint8_t> pattern;
  const cvec clean = clean_preamble_products(pattern);
  const core::OffsetSearch search;  // range 256: span is z[168, 1880)
  ASSERT_TRUE(core::find_modulation_offset(clean, pattern, 424, search));

  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const cf32 bad : {cf32{nan, 0.0f}, cf32{0.0f, nan}, cf32{inf, 0.0f},
                         cf32{-inf, 1.0f}, cf32{1.0f, -inf}}) {
    for (const std::size_t pos : {168u, 900u, 1879u}) {
      cvec z = clean;
      z[pos] = bad;
      EXPECT_FALSE(core::find_modulation_offset(z, pattern, 424, search))
          << "bad product at " << pos;
    }
  }
}

TEST(OffsetSearch, OverflowedProductsAreNoDetection) {
  // r conj(x) on saturated IQ: 1e20 * 1e20 overflows cf32 to inf / NaN.
  std::vector<std::uint8_t> pattern;
  const cvec clean = clean_preamble_products(pattern);
  cvec rx(clean.size(), cf32{1.0f, 0.0f});
  cvec ambient = clean;
  for (std::size_t i = 700; i < 760; ++i) {
    rx[i] = cf32{1e20f, 1e20f};
    ambient[i] = cf32{1e20f, -1e20f};
  }
  cvec z(clean.size());
  dsp::simd_kernels().conj_mul(rx.data(), ambient.data(), z.data(),
                               z.size());
  ASSERT_FALSE(std::isfinite(z[700].real()) && std::isfinite(z[700].imag()));
  EXPECT_FALSE(
      core::find_modulation_offset(z, pattern, 424, core::OffsetSearch{}));
}

TEST(OffsetSearch, NonFiniteProductOutsideSpanIsNeverRead) {
  std::vector<std::uint8_t> pattern;
  cvec z = clean_preamble_products(pattern);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  z[0] = cf32{nan, nan};
  z[2047] = cf32{nan, nan};
  const auto found =
      core::find_modulation_offset(z, pattern, 424, core::OffsetSearch{});
  ASSERT_TRUE(found);
  EXPECT_EQ(found->offset_units, 17);
}

TEST(StreamingReceiverNonFinite, NanChunkNeverReportsPreamble) {
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  const tag::TagScheduleConfig sched;
  lte::Enodeb::Config ecfg;
  ecfg.cell = cell;
  ecfg.seed = 31;
  lte::Enodeb enb(ecfg);
  tag::TagController ctl(cell, sched);
  dsp::Rng prng(32);

  // 20 subframes of clean backscatter; subframe 13's rx is all NaN.
  constexpr std::size_t kSubframes = 20;
  constexpr std::size_t kNanSubframe = 13;
  const std::size_t sps = cell.samples_per_subframe();
  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  core::StreamingReceiver ue(cfg);
  std::size_t found_elsewhere = 0;
  for (std::size_t sf = 0; sf < kSubframes; ++sf) {
    const auto tx = enb.next_subframe();
    const std::size_t cap = ctl.packet_raw_bits(sf);
    tag::SubframePlan plan;
    if (!ctl.is_listening_subframe(sf) && cap > 32) {
      const core::PacketCodec codec(cap);
      plan = ctl.plan_subframe(
          sf, true,
          core::split_bits(codec.encode(prng.bits(codec.payload_bits())),
                           ctl.bits_per_symbol()));
    } else {
      plan = ctl.plan_subframe(sf, false, {});
    }
    cvec rx = tag::apply_pattern(tx.samples, tag::expand_to_units(cell, plan),
                                 7, cf32{1e-3f, 4e-4f});
    if (sf == kNanSubframe) {
      for (auto& v : rx) {
        v = cf32{std::numeric_limits<float>::quiet_NaN(), 0.0f};
      }
    }
    ASSERT_EQ(rx.size(), sps);
    for (const auto& ev : ue.feed(rx, tx.samples)) {
      const bool overlaps = ev.first_subframe_index <= kNanSubframe &&
                            kNanSubframe < ev.first_subframe_index +
                                               sched.packet_subframes;
      if (overlaps) {
        EXPECT_FALSE(ev.result.preamble_found)
            << "packet at subframe " << ev.first_subframe_index;
      } else if (ev.result.preamble_found) {
        ++found_elsewhere;
      }
    }
  }
  EXPECT_GT(found_elsewhere, 10u);
}

}  // namespace
