#pragma once
// Cyclic redundancy checks. CRC-24A is LTE's transport-block CRC
// (TS 36.212 §5.1.1); CRC-32 (IEEE) and CRC-16-CCITT protect LScatter's
// own backscatter packets.
//
// Bit-level API: bits are one-per-byte (0/1), MSB-first, matching how the
// rest of the PHY pipelines handle payloads.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace lscatter::dsp {

/// CRC register value over a bit sequence with the given generator
/// polynomial (implicit leading 1): the `n_crc_bits` check bits packed
/// MSB-first into the low bits of the result. Allocation-free — the core
/// of crc_bits()/check_*() and the form hot paths should call.
std::uint32_t crc_value(std::span<const std::uint8_t> bits,
                        std::uint32_t poly, std::size_t n_crc_bits);

/// CRC over a bit sequence with the given generator polynomial (implicit
/// leading 1), producing `crc_bits` check bits, MSB first.
std::vector<std::uint8_t> crc_bits(std::span<const std::uint8_t> bits,
                                   std::uint32_t poly,
                                   std::size_t n_crc_bits);

/// LTE CRC-24A, poly 0x1864CFB.
std::vector<std::uint8_t> crc24a(std::span<const std::uint8_t> bits);

/// CRC-16-CCITT, poly 0x1021.
std::vector<std::uint8_t> crc16(std::span<const std::uint8_t> bits);

/// CRC-32 (IEEE 802.3 polynomial 0x04C11DB7, no reflection — bit-serial
/// form used by LTE-style systems).
std::vector<std::uint8_t> crc32(std::span<const std::uint8_t> bits);

/// Append CRC to a copy of `bits`.
std::vector<std::uint8_t> attach_crc24a(std::span<const std::uint8_t> bits);
std::vector<std::uint8_t> attach_crc16(std::span<const std::uint8_t> bits);
std::vector<std::uint8_t> attach_crc32(std::span<const std::uint8_t> bits);

/// attach_crc16 for a fixed-size message: the codeword comes back as an
/// array, without allocating.
template <std::size_t N>
std::array<std::uint8_t, N + 16> attach_crc16(
    const std::array<std::uint8_t, N>& bits) {
  std::array<std::uint8_t, N + 16> out{};
  std::copy(bits.begin(), bits.end(), out.begin());
  const std::uint32_t crc = crc_value(bits, 0x1021u, 16);
  for (std::size_t i = 0; i < 16; ++i) {
    out[N + i] = static_cast<std::uint8_t>((crc >> (15 - i)) & 1u);
  }
  return out;
}

/// True if the trailing CRC over the leading payload checks out.
bool check_crc24a(std::span<const std::uint8_t> bits_with_crc);
bool check_crc16(std::span<const std::uint8_t> bits_with_crc);
bool check_crc32(std::span<const std::uint8_t> bits_with_crc);

}  // namespace lscatter::dsp
