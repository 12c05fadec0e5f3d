#include "dsp/crc.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace lscatter::dsp {

namespace {

/// Byte-at-a-time table for one generator, with the register left-aligned
/// in 32 bits (bit 31 is the x^(n-1) term) so one table form serves every
/// CRC width.
struct CrcTable {
  bool built = false;
  std::uint32_t gen = 0;  // generator without its leading 1, left-aligned
  std::array<std::uint32_t, 256> entry{};
};

/// The calling thread's tables for the last few generators used (LTE
/// interleaves CRC-24A transport blocks with CRC-16 control and the
/// backscatter CRC-32). Built once per thread and generator, then reused.
const CrcTable& crc_table(std::uint32_t gen) {
  thread_local std::array<CrcTable, 4> cache;
  thread_local std::size_t next = 0;
  for (const CrcTable& t : cache) {
    if (t.built && t.gen == gen) return t;
  }
  CrcTable& t = cache[next];
  next = (next + 1) % cache.size();
  t.built = true;
  t.gen = gen;
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t reg = b << 24;
    for (int i = 0; i < 8; ++i) {
      reg = (reg & 0x80000000u) != 0 ? (reg << 1) ^ gen : reg << 1;
    }
    t.entry[b] = reg;
  }
  return t;
}

/// Eight one-bit-per-byte inputs as one byte, the first in the MSB.
std::uint32_t pack8(const std::uint8_t* b) {
  // Byte j of the word is b[j] (compilers fuse this into one load). The
  // multiply moves each byte's bit 0 to bit 63 - j, and no two partial
  // products share a bit, so nothing carries into the top byte.
  const std::uint64_t word =
      std::uint64_t{b[0]} | std::uint64_t{b[1]} << 8 |
      std::uint64_t{b[2]} << 16 | std::uint64_t{b[3]} << 24 |
      std::uint64_t{b[4]} << 32 | std::uint64_t{b[5]} << 40 |
      std::uint64_t{b[6]} << 48 | std::uint64_t{b[7]} << 56;
  return static_cast<std::uint32_t>(
      ((word & 0x0101010101010101ull) * 0x8040201008040201ull) >> 56);
}

}  // namespace

std::uint32_t crc_value(std::span<const std::uint8_t> bits,
                        std::uint32_t poly, std::size_t n_crc_bits) {
  assert(n_crc_bits > 0 && n_crc_bits <= 32);
  // Long division over GF(2) in the direct form: each message bit enters
  // at the top of the register, which equals dividing the message padded
  // with n_crc_bits zeros. Eight bits at a time go through the table; the
  // tail goes bit by bit.
  const auto shift = static_cast<unsigned>(32 - n_crc_bits);
  const std::uint32_t mask =
      n_crc_bits == 32 ? 0xFFFFFFFFu : ((1u << n_crc_bits) - 1u);
  const std::uint32_t gen = (poly & mask) << shift;
  const CrcTable& table = crc_table(gen);
  std::uint32_t reg = 0;
  std::size_t i = 0;
  for (; i + 8 <= bits.size(); i += 8) {
    reg = (reg << 8) ^ table.entry[(reg >> 24) ^ pack8(bits.data() + i)];
  }
  for (; i < bits.size(); ++i) {
    const bool feedback = ((reg >> 31) ^ (bits[i] & 1u)) != 0;
    reg <<= 1;
    if (feedback) reg ^= gen;
  }
  return reg >> shift;
}

std::vector<std::uint8_t> crc_bits(std::span<const std::uint8_t> bits,
                                   std::uint32_t poly,
                                   std::size_t n_crc_bits) {
  const std::uint32_t reg = crc_value(bits, poly, n_crc_bits);
  std::vector<std::uint8_t> out(n_crc_bits);
  for (std::size_t i = 0; i < n_crc_bits; ++i) {
    out[i] = static_cast<std::uint8_t>((reg >> (n_crc_bits - 1 - i)) & 1u);
  }
  return out;
}

std::vector<std::uint8_t> crc24a(std::span<const std::uint8_t> bits) {
  return crc_bits(bits, 0x864CFBu, 24);
}

std::vector<std::uint8_t> crc16(std::span<const std::uint8_t> bits) {
  return crc_bits(bits, 0x1021u, 16);
}

std::vector<std::uint8_t> crc32(std::span<const std::uint8_t> bits) {
  return crc_bits(bits, 0x04C11DB7u, 32);
}

namespace {
std::vector<std::uint8_t> attach(
    std::span<const std::uint8_t> bits,
    std::vector<std::uint8_t> (*fn)(std::span<const std::uint8_t>)) {
  std::vector<std::uint8_t> out(bits.begin(), bits.end());
  const auto crc = fn(bits);
  out.insert(out.end(), crc.begin(), crc.end());
  return out;
}

// Allocation-free: compare the register value bit-by-bit against the
// trailing check bits so the streaming hot path (check_crc32 per packet)
// never touches the heap.
bool check(std::span<const std::uint8_t> bits_with_crc, std::size_t n_crc,
           std::uint32_t poly) {
  if (bits_with_crc.size() < n_crc) return false;
  const auto payload = bits_with_crc.first(bits_with_crc.size() - n_crc);
  const std::uint32_t reg = crc_value(payload, poly, n_crc);
  const auto tail = bits_with_crc.last(n_crc);
  for (std::size_t i = 0; i < n_crc; ++i) {
    const std::uint8_t expect =
        static_cast<std::uint8_t>((reg >> (n_crc - 1 - i)) & 1u);
    if ((tail[i] & 1u) != expect) return false;
  }
  return true;
}
}  // namespace

std::vector<std::uint8_t> attach_crc24a(std::span<const std::uint8_t> bits) {
  return attach(bits, crc24a);
}
std::vector<std::uint8_t> attach_crc16(std::span<const std::uint8_t> bits) {
  return attach(bits, crc16);
}
std::vector<std::uint8_t> attach_crc32(std::span<const std::uint8_t> bits) {
  return attach(bits, crc32);
}

bool check_crc24a(std::span<const std::uint8_t> bits_with_crc) {
  return check(bits_with_crc, 24, 0x864CFBu);
}
bool check_crc16(std::span<const std::uint8_t> bits_with_crc) {
  return check(bits_with_crc, 16, 0x1021u);
}
bool check_crc32(std::span<const std::uint8_t> bits_with_crc) {
  return check(bits_with_crc, 32, 0x04C11DB7u);
}

}  // namespace lscatter::dsp
