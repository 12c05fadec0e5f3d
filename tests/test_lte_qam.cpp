// QAM mappers: spec levels, unit power, round trips, noisy demapping.

#include <gtest/gtest.h>

#include <cmath>

#include "core/contracts.hpp"
#include "dsp/rng.hpp"
#include "lte/qam.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;
using lte::Modulation;

class QamRoundTrip : public ::testing::TestWithParam<Modulation> {};

TEST_P(QamRoundTrip, ModulateDemodulateIsIdentity) {
  const Modulation m = GetParam();
  dsp::Rng rng(static_cast<std::uint64_t>(m) + 1);
  const auto bits = rng.bits(600 * lte::bits_per_symbol(m));
  const auto symbols = lte::qam_modulate(bits, m);
  const auto out = lte::qam_demodulate(symbols, m);
  EXPECT_EQ(out, bits);
}

TEST_P(QamRoundTrip, UnitAveragePower) {
  const Modulation m = GetParam();
  dsp::Rng rng(static_cast<std::uint64_t>(m) + 7);
  const auto bits = rng.bits(20000 * lte::bits_per_symbol(m));
  const auto symbols = lte::qam_modulate(bits, m);
  EXPECT_NEAR(dsp::mean_power(symbols), 1.0, 0.02);
}

TEST_P(QamRoundTrip, SurvivesSmallNoise) {
  const Modulation m = GetParam();
  dsp::Rng rng(static_cast<std::uint64_t>(m) + 13);
  const auto bits = rng.bits(1000 * lte::bits_per_symbol(m));
  auto symbols = lte::qam_modulate(bits, m);
  for (auto& s : symbols) s += rng.complex_normal(1e-4);
  EXPECT_EQ(lte::qam_demodulate(symbols, m), bits);
}

INSTANTIATE_TEST_SUITE_P(AllModulations, QamRoundTrip,
                         ::testing::Values(Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

TEST(Qam, QpskLevels) {
  const std::vector<std::uint8_t> bits = {0, 0, 1, 1};
  const auto s = lte::qam_modulate(bits, Modulation::kQpsk);
  const double a = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(s[0].real(), a, 1e-6);
  EXPECT_NEAR(s[0].imag(), a, 1e-6);
  EXPECT_NEAR(s[1].real(), -a, 1e-6);
  EXPECT_NEAR(s[1].imag(), -a, 1e-6);
}

TEST(Qam, Qam16SpecTableCorners) {
  // TS 36.211 Table 7.1.3-1: b=0000 -> (1+j)/sqrt(10); b=1010 ->
  // (-3-3j)/sqrt(10) [b0 b1 b2 b3 with b2/b3 selecting magnitude 3].
  const double s10 = std::sqrt(10.0);
  const auto a =
      lte::qam_modulate(std::vector<std::uint8_t>{0, 0, 0, 0},
                        Modulation::kQam16);
  EXPECT_NEAR(a[0].real(), 1.0 / s10, 1e-6);
  EXPECT_NEAR(a[0].imag(), 1.0 / s10, 1e-6);
  const auto b =
      lte::qam_modulate(std::vector<std::uint8_t>{1, 1, 1, 1},
                        Modulation::kQam16);
  EXPECT_NEAR(b[0].real(), -3.0 / s10, 1e-6);
  EXPECT_NEAR(b[0].imag(), -3.0 / s10, 1e-6);
}

TEST(Qam, Qam64SpecTableCorners) {
  const double s42 = std::sqrt(42.0);
  const auto a = lte::qam_modulate(
      std::vector<std::uint8_t>{0, 0, 0, 0, 0, 0}, Modulation::kQam64);
  EXPECT_NEAR(a[0].real(), 3.0 / s42, 1e-6);
  const auto b = lte::qam_modulate(
      std::vector<std::uint8_t>{0, 0, 1, 1, 1, 1}, Modulation::kQam64);
  EXPECT_NEAR(b[0].real(), 7.0 / s42, 1e-6);
}

TEST(Qam, BitsPerSymbol) {
  EXPECT_EQ(lte::bits_per_symbol(Modulation::kQpsk), 2u);
  EXPECT_EQ(lte::bits_per_symbol(Modulation::kQam16), 4u);
  EXPECT_EQ(lte::bits_per_symbol(Modulation::kQam64), 6u);
}

TEST(Qam, EvmOfCleanSignalIsZero) {
  dsp::Rng rng(99);
  const auto bits = rng.bits(400);
  const auto s = lte::qam_modulate(bits, Modulation::kQpsk);
  EXPECT_NEAR(lte::evm_rms(s, s), 0.0, 1e-9);
}

TEST(Qam, EvmTracksNoisePower) {
  dsp::Rng rng(100);
  const auto bits = rng.bits(40000);
  const auto ref = lte::qam_modulate(bits, Modulation::kQpsk);
  auto noisy = ref;
  for (auto& v : noisy) v += rng.complex_normal(0.01);
  EXPECT_NEAR(lte::evm_rms(noisy, ref), 0.1, 0.01);  // sqrt(0.01)
}

#if LSCATTER_CHECKS_ENABLED
TEST(Qam, MismatchedSpansViolateTheContract) {
  // Checked in release builds too, not just by asserts: callers slice
  // whole OFDM symbols through these, and a short `bits` span would be
  // read (or written) past its end.
  core::contracts::ScopedFailureMode guard(
      core::contracts::FailureMode::kThrow);
  std::vector<std::uint8_t> bits(12, 0);
  std::vector<cf32> syms(4);
  const std::span<std::uint8_t> all(bits);
  EXPECT_THROW(lte::qam_modulate_into(all.first(6), Modulation::kQpsk, syms),
               core::ContractViolation);
  EXPECT_THROW(lte::qam_modulate_into(all, Modulation::kQam16, syms),
               core::ContractViolation);
  EXPECT_THROW(lte::qam_modulate_into(all.first(7), Modulation::kQpsk,
                                      std::span(syms).first(3)),
               core::ContractViolation);
  EXPECT_THROW(lte::qam_demodulate_into(syms, Modulation::kQam64, all),
               core::ContractViolation);
  EXPECT_THROW(lte::qam_demodulate_into(std::span(syms).first(3),
                                        Modulation::kQam16, all.first(8)),
               core::ContractViolation);
  EXPECT_NO_THROW(lte::qam_modulate_into(all.first(8), Modulation::kQpsk,
                                         syms));
  EXPECT_NO_THROW(lte::qam_demodulate_into(std::span(syms).first(2),
                                           Modulation::kQam64, all));
}
#endif

}  // namespace
