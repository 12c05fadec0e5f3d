// LTE sequences: Zadoff-Chu properties, PSS/SSS structure, Gold PRS, CRS.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "dsp/rng.hpp"
#include "lte/sequences.hpp"
#include "lte/signal_map.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;
using dsp::cvec;

// The bytewise Gold generator, TS 36.211 §7.2 transcribed one register bit
// per byte: the oracle for the word-parallel lte::gold_sequence.
std::vector<std::uint8_t> gold_bytewise(std::uint32_t c_init,
                                        std::size_t len) {
  constexpr std::size_t kNc = 1600;
  const std::size_t total = kNc + len + 31;

  std::vector<std::uint8_t> x1(total, 0);
  std::vector<std::uint8_t> x2(total, 0);
  x1[0] = 1;
  for (std::size_t i = 0; i < 31; ++i)
    x2[i] = static_cast<std::uint8_t>((c_init >> i) & 1u);

  for (std::size_t n = 0; n + 31 < total; ++n) {
    x1[n + 31] = static_cast<std::uint8_t>((x1[n + 3] + x1[n]) & 1u);
    x2[n + 31] = static_cast<std::uint8_t>(
        (x2[n + 3] + x2[n + 2] + x2[n + 1] + x2[n]) & 1u);
  }

  std::vector<std::uint8_t> c(len);
  for (std::size_t n = 0; n < len; ++n)
    c[n] = static_cast<std::uint8_t>((x1[n + kNc] + x2[n + kNc]) & 1u);
  return c;
}

// CRS values from the bytewise oracle, with the spec's QPSK formula.
cvec crs_oracle(std::uint16_t cell_id, std::size_t ns, std::size_t l) {
  const std::uint32_t c_init = static_cast<std::uint32_t>(
      (1u << 10) * (7 * (ns + 1) + l + 1) * (2u * cell_id + 1) +
      2u * cell_id + 1);
  const std::size_t n_vals = 2 * lte::kMaxRb;
  const auto c = gold_bytewise(c_init, 2 * n_vals);
  cvec r(n_vals);
  const float inv_sqrt2 = static_cast<float>(1.0 / std::sqrt(2.0));
  for (std::size_t m = 0; m < n_vals; ++m) {
    r[m] = cf32{inv_sqrt2 * (1.0f - 2.0f * c[2 * m]),
                inv_sqrt2 * (1.0f - 2.0f * c[2 * m + 1])};
  }
  return r;
}

// The full master set from the library's word-parallel generator.
cvec crs_values(std::uint16_t cell_id, std::size_t ns, std::size_t l) {
  cvec r(2 * lte::kMaxRb);
  lte::crs_values_into(cell_id, ns, l, 0, r);
  return r;
}

bool same_bytes(std::span<const cf32> a, std::span<const cf32> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

TEST(ZadoffChu, ConstantAmplitude) {
  const cvec zc = lte::zadoff_chu(25, 63);
  for (const cf32 v : zc) {
    EXPECT_NEAR(std::abs(v), 1.0, 1e-5);
  }
}

TEST(ZadoffChu, ZeroCyclicAutocorrelation) {
  const std::size_t n = 63;
  const cvec zc = lte::zadoff_chu(29, n);
  for (std::size_t shift = 1; shift < n; ++shift) {
    dsp::cf64 acc{};
    for (std::size_t k = 0; k < n; ++k) {
      const cf32 a = zc[k];
      const cf32 b = zc[(k + shift) % n];
      acc += dsp::cf64{a.real(), a.imag()} * dsp::cf64{b.real(), -b.imag()};
    }
    EXPECT_LT(std::abs(acc), 1e-3) << "shift " << shift;
  }
}

TEST(Pss, ThreeRootsAreNearlyOrthogonal) {
  const auto p0 = lte::pss_sequence(0);
  const auto p1 = lte::pss_sequence(1);
  const auto p2 = lte::pss_sequence(2);
  EXPECT_EQ(p0.size(), 62u);
  const auto xcorr = [](std::span<const cf32> a, std::span<const cf32> b) {
    return std::abs(dsp::inner_product(a, b)) / 62.0;
  };
  // ZC cross-correlation between coprime roots of a length-63 sequence is
  // 1/sqrt(63) ~ 0.126 per lag, but the punctured 62-element PSS version
  // lands near 0.2-0.4; anything clearly below the unit autocorrelation
  // keeps the detector unambiguous.
  EXPECT_NEAR(xcorr(p0, p0), 1.0, 1e-5);
  EXPECT_LT(xcorr(p0, p1), 0.45);
  EXPECT_LT(xcorr(p0, p2), 0.45);
  EXPECT_LT(xcorr(p1, p2), 0.45);
}

TEST(Pss, Roots25And29And34Conjugacy) {
  // Roots 29 and 34 are complex-conjugate-related (29 + 34 = 63): d_34 =
  // conj(d_29). A classic LTE property used by low-complexity detectors.
  const auto p1 = lte::pss_sequence(1);  // root 29
  const auto p2 = lte::pss_sequence(2);  // root 34
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_NEAR(p2[i].real(), p1[i].real(), 1e-4);
    EXPECT_NEAR(p2[i].imag(), -p1[i].imag(), 1e-4);
  }
}

TEST(Sss, ValuesAreBpsk) {
  const auto d = lte::sss_sequence(101, 2, false);
  EXPECT_EQ(d.size(), 62u);
  for (const cf32 v : d) {
    EXPECT_NEAR(std::abs(v.real()), 1.0, 1e-6);
    EXPECT_NEAR(v.imag(), 0.0, 1e-6);
  }
}

TEST(Sss, Subframe0And5Differ) {
  const auto sf0 = lte::sss_sequence(30, 1, false);
  const auto sf5 = lte::sss_sequence(30, 1, true);
  int diffs = 0;
  for (std::size_t i = 0; i < sf0.size(); ++i) {
    if (sf0[i].real() != sf5[i].real()) ++diffs;
  }
  EXPECT_GT(diffs, 10);
}

TEST(Sss, DistinctCellIdsGiveDistinctSequences) {
  // Cross-correlations between different N_ID1 must be well below the
  // autocorrelation.
  const auto a = lte::sss_sequence(10, 0, false);
  for (const std::uint16_t id1 : {std::uint16_t{0}, std::uint16_t{1},
                                  std::uint16_t{42}, std::uint16_t{99},
                                  std::uint16_t{167}}) {
    const auto b = lte::sss_sequence(id1, 0, false);
    const double c = std::abs(dsp::inner_product(a, b)) / 62.0;
    if (id1 == 10) {
      EXPECT_NEAR(c, 1.0, 1e-6);
    } else {
      EXPECT_LT(c, 0.5) << "id1 " << id1;
    }
  }
}

TEST(Gold, FirstBitsMatchInitAndAreBalanced) {
  const auto c = lte::gold_sequence(0x12345, 4096);
  EXPECT_EQ(c.size(), 4096u);
  std::size_t ones = 0;
  for (const auto b : c) {
    ASSERT_LE(b, 1);
    ones += b;
  }
  // Gold sequences are balanced to within a small deviation.
  EXPECT_NEAR(static_cast<double>(ones), 2048.0, 150.0);
}

TEST(Gold, DifferentInitsDecorrelated) {
  const auto a = lte::gold_sequence(1, 2048);
  const auto b = lte::gold_sequence(2, 2048);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++agree;
  }
  EXPECT_NEAR(static_cast<double>(agree), 1024.0, 120.0);
}

TEST(Crs, ValuesAreUnitPowerQpsk) {
  const cvec r = crs_values(37, 3, 0);
  EXPECT_EQ(r.size(), 2 * lte::kMaxRb);
  for (const cf32 v : r) {
    EXPECT_NEAR(std::abs(v), 1.0, 1e-5);
    EXPECT_NEAR(std::abs(v.real()), 1.0 / std::sqrt(2.0), 1e-5);
  }
}

TEST(Crs, DependsOnSlotSymbolAndCell) {
  const cvec base = crs_values(37, 3, 0);
  EXPECT_NE(base, crs_values(38, 3, 0));
  EXPECT_NE(base, crs_values(37, 4, 0));
  EXPECT_NE(base, crs_values(37, 3, 4));
}

TEST(Gold, WordParallelMatchesBytewiseOracle) {
  // Seeded c_init values (bit 31 included: the generator must ignore it)
  // and lengths 0..3000, plus every length up to 64 for the tail handling.
  dsp::Rng rng(36211);
  std::size_t mismatches = 0;
  std::size_t cases = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint32_t c_init = rng.next_u32();
    const std::size_t len = rng.uniform_int(3001);
    mismatches +=
        lte::gold_sequence(c_init, len) != gold_bytewise(c_init, len);
    ++cases;
  }
  for (const std::uint32_t c_init : {0u, 1u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
    for (std::size_t len = 0; len <= 64; ++len) {
      mismatches +=
          lte::gold_sequence(c_init, len) != gold_bytewise(c_init, len);
      ++cases;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << cases << " cases";
}

TEST(Crs, EveryIntoFormMatchesTheOracle) {
  // Every slot, CRS symbol and bandwidth, a few cell identities: the full
  // set, the cell's centered window, and arbitrary windows of it.
  dsp::Rng rng(6101);
  for (const std::uint16_t n_id_1 : {std::uint16_t{0}, std::uint16_t{77},
                                     std::uint16_t{167}}) {
    for (const lte::Bandwidth bw : lte::kAllBandwidths) {
      lte::CellConfig cfg;
      cfg.bandwidth = bw;
      cfg.n_id_1 = n_id_1;
      cfg.n_id_2 = static_cast<std::uint8_t>(n_id_1 % 3);
      const std::size_t n = 2 * cfg.n_rb();
      cvec window(n);
      for (std::size_t sf = 0; sf < lte::kSubframesPerFrame; ++sf) {
        for (const std::size_t l : lte::kCrsSymbolIndices) {
          const std::size_t ns = 2 * sf + (l >= lte::kSymbolsPerSlot);
          const std::size_t l_slot = l % lte::kSymbolsPerSlot;
          const cvec oracle = crs_oracle(cfg.cell_id(), ns, l_slot);
          ASSERT_TRUE(same_bytes(crs_values(cfg.cell_id(), ns, l_slot),
                                 oracle))
              << "ns " << ns << " l " << l_slot;
          lte::crs_values_for_symbol_into(cfg, sf, l, window);
          const std::size_t centered = lte::kMaxRb - cfg.n_rb();
          ASSERT_TRUE(same_bytes(
              window, std::span<const cf32>(oracle).subspan(centered, n)))
              << lte::to_string(bw) << " sf " << sf << " l " << l;
          constexpr auto kAll = static_cast<std::uint32_t>(2 * lte::kMaxRb);
          const std::size_t first = rng.uniform_int(kAll + 1);
          const std::size_t len = rng.uniform_int(
              kAll - static_cast<std::uint32_t>(first) + 1);
          cvec part(len);
          lte::crs_values_into(cfg.cell_id(), ns, l_slot, first, part);
          ASSERT_TRUE(same_bytes(
              part, std::span<const cf32>(oracle).subspan(first, len)))
              << "first " << first << " len " << len;
        }
      }
    }
  }
}

}  // namespace
