#include "lte/pbch.hpp"

#include <cassert>

#include "dsp/crc.hpp"
#include "lte/qam.hpp"
#include "lte/signal_map.hpp"

namespace lscatter::lte {

using dsp::cf32;

std::array<std::uint8_t, 24> mib_to_bits(const Mib& mib) {
  std::array<std::uint8_t, 24> bits{};
  const auto bw = static_cast<std::uint8_t>(mib.bandwidth);
  for (int i = 0; i < 3; ++i) bits[i] = (bw >> (2 - i)) & 1u;
  for (int i = 0; i < 10; ++i) bits[3 + i] = (mib.sfn >> (9 - i)) & 1u;
  return bits;
}

std::optional<Mib> bits_to_mib(std::span<const std::uint8_t> bits) {
  assert(bits.size() >= 24);
  std::uint8_t bw = 0;
  for (int i = 0; i < 3; ++i) bw = static_cast<std::uint8_t>((bw << 1) | bits[i]);
  if (bw > 5) return std::nullopt;
  std::uint16_t sfn = 0;
  for (int i = 0; i < 10; ++i) {
    sfn = static_cast<std::uint16_t>((sfn << 1) | bits[3 + i]);
  }
  Mib mib;
  mib.bandwidth = static_cast<Bandwidth>(bw);
  mib.sfn = sfn;
  return mib;
}

namespace {

constexpr std::size_t kCodewordBits = 24 + 16;  // MIB + CRC16

// Calls fn(k) for each PBCH subcarrier of symbol l, in mapping order: the
// central 6 RB = 72 subcarriers, minus CRS positions in CRS-bearing
// symbols (of the kPbchSymbolIndices, only l == 7 carries CRS).
template <class Fn>
void for_each_pbch_subcarrier(const CellConfig& cfg, std::size_t l,
                              Fn&& fn) {
  const std::size_t first = cfg.n_subcarriers() / 2 - 36;
  const bool has_crs = l == 7;
  const std::size_t crs = crs_first_subcarrier(cfg, l);
  for (std::size_t i = 0; i < 72; ++i) {
    const std::size_t k = first + i;
    if (!(has_crs && k % 6 == crs)) fn(k);
  }
}

}  // namespace

std::vector<std::size_t> pbch_subcarriers(const CellConfig& cfg,
                                          std::size_t l) {
  std::vector<std::size_t> out;
  out.reserve(72);
  for_each_pbch_subcarrier(cfg, l, [&](std::size_t k) { out.push_back(k); });
  return out;
}

void map_pbch(const CellConfig& cfg, const Mib& mib, ResourceGrid& grid) {
  // The codeword repeats every kCodewordBits / 2 QPSK symbols, so it is
  // modulated once and cycled over the region.
  std::array<cf32, kCodewordBits / 2> symbols;
  qam_modulate_into(dsp::attach_crc16(mib_to_bits(mib)), Modulation::kQpsk,
                    symbols);
  std::size_t cursor = 0;
  for (const std::size_t l : kPbchSymbolIndices) {
    for_each_pbch_subcarrier(cfg, l, [&](std::size_t k) {
      grid.at(l, k) = symbols[cursor++ % symbols.size()];
      grid.type_at(l, k) = ReType::kPbch;
    });
  }
}

std::optional<Mib> decode_pbch(const CellConfig& cfg,
                               const ResourceGrid& equalized_grid) {
  // Soft majority combining of the repeated codeword: accumulate the
  // I (even bits) and Q (odd bits) of each RE into its codeword slot.
  std::array<double, kCodewordBits> acc{};
  std::size_t bit_cursor = 0;
  for (const std::size_t l : kPbchSymbolIndices) {
    for_each_pbch_subcarrier(cfg, l, [&](std::size_t k) {
      const cf32 v = equalized_grid.at(l, k);
      acc[bit_cursor % kCodewordBits] += v.real();
      acc[(bit_cursor + 1) % kCodewordBits] += v.imag();
      bit_cursor += 2;
    });
  }
  std::array<std::uint8_t, kCodewordBits> bits{};
  for (std::size_t i = 0; i < kCodewordBits; ++i) {
    bits[i] = acc[i] < 0.0 ? 1 : 0;  // QPSK: positive axis = bit 0
  }
  if (!dsp::check_crc16(bits)) return std::nullopt;
  return bits_to_mib(bits);
}

}  // namespace lscatter::lte
