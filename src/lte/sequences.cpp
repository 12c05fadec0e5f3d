#include "lte/sequences.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/contracts.hpp"

namespace lscatter::lte {

using dsp::cf32;
using dsp::cvec;
using dsp::kPi;

cvec zadoff_chu(std::uint32_t root, std::size_t n) {
  assert(n > 0);
  cvec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Argument computed modulo 2n to avoid precision loss for large k.
    const std::size_t q = (root * k * (k + 1)) % (2 * n);
    const double ang = -kPi * static_cast<double>(q) / static_cast<double>(n);
    out[k] = cf32{static_cast<float>(std::cos(ang)),
                  static_cast<float>(std::sin(ang))};
  }
  return out;
}

std::array<cf32, kSyncSubcarriers> pss_sequence(std::uint8_t n_id_2) {
  assert(n_id_2 < 3);
  static constexpr std::array<std::uint32_t, 3> kRoots = {25, 29, 34};
  const std::uint32_t u = kRoots[n_id_2];
  std::array<cf32, kSyncSubcarriers> d;
  for (std::size_t n = 0; n < 31; ++n) {
    const std::size_t q = (u * n * (n + 1)) % 126;
    const double ang = -kPi * static_cast<double>(q) / 63.0;
    d[n] = cf32{static_cast<float>(std::cos(ang)),
                static_cast<float>(std::sin(ang))};
  }
  for (std::size_t n = 31; n < 62; ++n) {
    const std::size_t q = (u * (n + 1) * (n + 2)) % 126;
    const double ang = -kPi * static_cast<double>(q) / 63.0;
    d[n] = cf32{static_cast<float>(std::cos(ang)),
                static_cast<float>(std::sin(ang))};
  }
  return d;
}

namespace {

// Generic length-31 m-sequence: x(i+5) = sum of selected taps mod 2,
// x(0..4) = 0,0,0,0,1; returns s̃(i) = 1 - 2 x(i).
std::array<int, 31> m_sequence(std::array<int, 5> tap_indices,
                               std::size_t n_taps) {
  std::array<int, 31> x{};
  x[4] = 1;
  for (std::size_t i = 0; i + 5 < 31; ++i) {
    int v = 0;
    for (std::size_t t = 0; t < n_taps; ++t) v += x[i + tap_indices[t]];
    x[i + 5] = v % 2;
  }
  std::array<int, 31> s{};
  for (std::size_t i = 0; i < 31; ++i) s[i] = 1 - 2 * x[i];
  return s;
}

}  // namespace

std::array<cf32, kSyncSubcarriers> sss_sequence(std::uint16_t n_id_1,
                                                std::uint8_t n_id_2,
                                                bool subframe5) {
  assert(n_id_1 < 168);
  assert(n_id_2 < 3);

  // m0/m1 derivation, TS 36.211 Table 6.11.2.1-1 formulae.
  const int q_prime = n_id_1 / 30;
  const int q = (n_id_1 + q_prime * (q_prime + 1) / 2) / 30;
  const int m_prime = n_id_1 + q * (q + 1) / 2;
  const int m0 = m_prime % 31;
  const int m1 = (m0 + m_prime / 31 + 1) % 31;

  // s̃: x5 + x2 + 1  -> x(i+5) = x(i+2) + x(i)
  static const auto s_tilde = m_sequence({0, 2, 0, 0, 0}, 2);
  // c̃: x5 + x3 + 1  -> x(i+5) = x(i+3) + x(i)
  static const auto c_tilde = m_sequence({0, 3, 0, 0, 0}, 2);
  // z̃: x5 + x4 + x2 + x + 1 -> x(i+5) = x(i+4)+x(i+2)+x(i+1)+x(i)
  static const auto z_tilde = m_sequence({0, 1, 2, 4, 0}, 4);

  auto s = [&](int m, int n) { return s_tilde[(n + m) % 31]; };
  auto c0 = [&](int n) { return c_tilde[(n + n_id_2) % 31]; };
  auto c1 = [&](int n) { return c_tilde[(n + n_id_2 + 3) % 31]; };
  auto z1 = [&](int m, int n) { return z_tilde[(n + (m % 8)) % 31]; };

  std::array<cf32, kSyncSubcarriers> d;
  for (int n = 0; n < 31; ++n) {
    int even = 0;
    int odd = 0;
    if (!subframe5) {
      even = s(m0, n) * c0(n);
      odd = s(m1, n) * c1(n) * z1(m0, n);
    } else {
      even = s(m1, n) * c0(n);
      odd = s(m0, n) * c1(n) * z1(m1, n);
    }
    d[2 * n] = cf32{static_cast<float>(even), 0.0f};
    d[2 * n + 1] = cf32{static_cast<float>(odd), 0.0f};
  }
  return d;
}

namespace {

constexpr std::size_t kGoldNc = 1600;  // TS 36.211 §7.2 N_c

/// The two Gold shift registers, one word each: bit i holds x(n + i) for
/// the current position n. Both recursions tap only x(n)..x(n + 3), so
/// up to 28 new bits of each come out of one shift-and-xor.
class GoldWords {
 public:
  explicit GoldWords(std::uint32_t c_init) : x2_(c_init & 0x7FFFFFFFu) {}

  /// Moves n forward by k <= 28 positions.
  void advance(unsigned k) {
    const std::uint32_t mask = (1u << k) - 1u;
    const std::uint32_t n1 = ((x1_ >> 3) ^ x1_) & mask;
    const std::uint32_t n2 =
        ((x2_ >> 3) ^ (x2_ >> 2) ^ (x2_ >> 1) ^ x2_) & mask;
    x1_ = (x1_ >> k) | (n1 << (31 - k));
    x2_ = (x2_ >> k) | (n2 << (31 - k));
  }

  void skip(std::size_t n) {
    for (; n > kStep; n -= kStep) advance(kStep);
    if (n > 0) advance(static_cast<unsigned>(n));
  }

  /// Bit i is c(n + i - N_c) for i < 31, once skip(N_c) has run.
  std::uint32_t bits() const { return x1_ ^ x2_; }

  static constexpr unsigned kStep = 28;

 private:
  std::uint32_t x1_ = 1;
  std::uint32_t x2_;
};

}  // namespace

std::vector<std::uint8_t> gold_sequence(std::uint32_t c_init,
                                        std::size_t len) {
  std::vector<std::uint8_t> c(len);
  GoldWords g(c_init);
  g.skip(kGoldNc);
  for (std::size_t n = 0; n < len; n += GoldWords::kStep) {
    const std::uint32_t w = g.bits();
    const std::size_t take = std::min<std::size_t>(GoldWords::kStep, len - n);
    for (std::size_t i = 0; i < take; ++i)
      c[n + i] = static_cast<std::uint8_t>((w >> i) & 1u);
    g.advance(GoldWords::kStep);
  }
  return c;
}

void crs_values_into(std::uint16_t cell_id, std::size_t ns, std::size_t l,
                     std::size_t first, std::span<cf32> out) {
  assert(ns < 20);
  LSCATTER_EXPECT(first + out.size() <= 2 * kMaxRb,
                  "CRS window must lie inside the 2*kMaxRb master set");
  constexpr std::uint32_t kNcp = 1;  // normal CP
  const std::uint32_t c_init = static_cast<std::uint32_t>(
      (1u << 10) * (7 * (ns + 1) + l + 1) * (2u * cell_id + 1) +
      2u * cell_id + kNcp);
  // Value m is QPSK from Gold bits c(2m), c(2m + 1): bit 0 maps to
  // +1/sqrt(2), bit 1 to -1/sqrt(2) (exactly inv_sqrt2 * (1 - 2c)).
  GoldWords g(c_init);
  g.skip(kGoldNc + 2 * first);
  const float inv_sqrt2 = static_cast<float>(1.0 / std::sqrt(2.0));
  constexpr std::size_t kPerStep = GoldWords::kStep / 2;
  for (std::size_t m = 0; m < out.size(); m += kPerStep) {
    const std::uint32_t w = g.bits();
    const std::size_t take = std::min(kPerStep, out.size() - m);
    for (std::size_t i = 0; i < take; ++i) {
      out[m + i] = cf32{(w >> (2 * i)) & 1u ? -inv_sqrt2 : inv_sqrt2,
                        (w >> (2 * i + 1)) & 1u ? -inv_sqrt2 : inv_sqrt2};
    }
    g.advance(GoldWords::kStep);
  }
}

}  // namespace lscatter::lte
