// CRC: round-trips, error detection, burst-error properties, and the
// table-driven register against the bit-serial long division.

#include <gtest/gtest.h>

#include "dsp/crc.hpp"
#include "dsp/rng.hpp"

namespace {

using namespace lscatter::dsp;

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return rng.bits(n);
}

TEST(Crc, AttachAndCheckRoundTrip24) {
  const auto payload = random_bits(500, 1);
  const auto coded = attach_crc24a(payload);
  EXPECT_EQ(coded.size(), payload.size() + 24);
  EXPECT_TRUE(check_crc24a(coded));
}

TEST(Crc, AttachAndCheckRoundTrip16) {
  const auto payload = random_bits(77, 2);
  EXPECT_TRUE(check_crc16(attach_crc16(payload)));
}

TEST(Crc, AttachAndCheckRoundTrip32) {
  const auto payload = random_bits(1234, 3);
  EXPECT_TRUE(check_crc32(attach_crc32(payload)));
}

class CrcBitFlip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrcBitFlip, SingleBitFlipAlwaysDetected) {
  const auto payload = random_bits(200, 4);
  auto coded = attach_crc32(payload);
  const std::size_t pos = GetParam() % coded.size();
  coded[pos] ^= 1;
  EXPECT_FALSE(check_crc32(coded));
}

INSTANTIATE_TEST_SUITE_P(Positions, CrcBitFlip,
                         ::testing::Values(0, 1, 50, 100, 199, 200, 210,
                                           231));

TEST(Crc, DoubleBitFlipDetected) {
  const auto payload = random_bits(300, 5);
  auto coded = attach_crc24a(payload);
  coded[10] ^= 1;
  coded[200] ^= 1;
  EXPECT_FALSE(check_crc24a(coded));
}

TEST(Crc, BurstErrorsWithinCrcLengthDetected) {
  const auto payload = random_bits(400, 6);
  for (std::size_t width = 2; width <= 16; ++width) {
    auto coded = attach_crc16(payload);
    for (std::size_t i = 0; i < width; ++i) coded[37 + i] ^= 1;
    EXPECT_FALSE(check_crc16(coded)) << "burst width " << width;
  }
}

TEST(Crc, EmptyPayloadStillWorks) {
  const std::vector<std::uint8_t> empty;
  const auto coded = attach_crc16(empty);
  EXPECT_EQ(coded.size(), 16u);
  EXPECT_TRUE(check_crc16(coded));
}

TEST(Crc, AllZerosVsAllOnesDiffer) {
  const std::vector<std::uint8_t> zeros(64, 0);
  const std::vector<std::uint8_t> ones(64, 1);
  EXPECT_NE(crc24a(zeros), crc24a(ones));
}

TEST(Crc, RandomCorruptionDetectionRate) {
  // With a 32-bit CRC the chance of a random corruption passing is 2^-32;
  // across 2000 trials we must see zero false accepts.
  Rng rng(7);
  const auto payload = random_bits(256, 8);
  const auto good = attach_crc32(payload);
  int false_accepts = 0;
  for (int t = 0; t < 2000; ++t) {
    auto bad = good;
    const std::size_t flips = 1 + rng.uniform_int(10);
    for (std::size_t f = 0; f < flips; ++f) {
      bad[rng.uniform_int(static_cast<std::uint32_t>(bad.size()))] ^= 1;
    }
    if (bad != good && check_crc32(bad)) ++false_accepts;
  }
  EXPECT_EQ(false_accepts, 0);
}

// The bit-serial long division crc_value used before it went
// table-driven, kept as the oracle: the message padded with n_crc_bits
// zeros, shifted through the register one bit at a time.
std::uint32_t bit_serial_crc(std::span<const std::uint8_t> bits,
                             std::uint32_t poly, std::size_t n_crc_bits) {
  std::uint32_t reg = 0;
  const std::uint32_t top = 1u << (n_crc_bits - 1);
  const std::uint32_t mask =
      n_crc_bits == 32 ? 0xFFFFFFFFu : ((1u << n_crc_bits) - 1u);
  auto shift_in = [&](std::uint8_t bit) {
    const bool feedback = (reg & top) != 0;
    reg = ((reg << 1) | bit) & mask;
    if (feedback) reg ^= poly & mask;
  };
  for (const std::uint8_t b : bits) shift_in(b & 1u);
  for (std::size_t i = 0; i < n_crc_bits; ++i) shift_in(0);
  return reg;
}

TEST(Crc, TableDrivenMatchesBitSerialOnRandomLengths) {
  struct Generator {
    std::uint32_t poly;
    std::size_t bits;
  };
  // CRC-16-CCITT, CRC-24A, CRC-32, interleaved so calls alternate
  // between the per-thread tables.
  const Generator gens[] = {{0x1021u, 16}, {0x864CFBu, 24},
                            {0x04C11DB7u, 32}};
  Rng rng(20000);
  for (int trial = 0; trial < 200; ++trial) {
    // Lengths 0..20000, every residue mod 8 (the bit-serial tail) hit.
    const std::size_t len = trial < 16 ? static_cast<std::size_t>(trial)
                                       : rng.uniform_int(20001);
    auto bits = rng.bits(len);
    if (trial % 2 == 1) {
      // Only bit 0 of each input byte counts.
      for (auto& b : bits) {
        b |= static_cast<std::uint8_t>(rng.next_u32() & 0xFEu);
      }
    }
    for (const Generator& g : gens) {
      EXPECT_EQ(crc_value(bits, g.poly, g.bits),
                bit_serial_crc(bits, g.poly, g.bits))
          << "length " << len << ", CRC-" << g.bits;
    }
  }
}

}  // namespace
