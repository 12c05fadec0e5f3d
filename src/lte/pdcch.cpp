#include "lte/pdcch.hpp"

#include <cassert>

#include "dsp/crc.hpp"
#include "lte/signal_map.hpp"

namespace lscatter::lte {

using dsp::cf32;

std::array<std::uint8_t, 16> dci_to_bits(const Dci& dci) {
  std::array<std::uint8_t, 16> bits{};
  for (int l = 0; l < 14; ++l) {
    bits[l] = static_cast<std::uint8_t>((dci.center_active_mask >> l) & 1u);
  }
  const auto mcs = static_cast<std::uint8_t>(dci.mcs);
  bits[14] = (mcs >> 1) & 1u;
  bits[15] = mcs & 1u;
  return bits;
}

std::optional<Dci> bits_to_dci(std::span<const std::uint8_t> bits) {
  assert(bits.size() >= 16);
  Dci dci;
  dci.center_active_mask = 0;
  for (int l = 0; l < 14; ++l) {
    dci.center_active_mask = static_cast<std::uint16_t>(
        dci.center_active_mask | (static_cast<std::uint16_t>(bits[l] & 1u)
                                  << l));
  }
  const std::uint8_t mcs =
      static_cast<std::uint8_t>((bits[14] << 1) | bits[15]);
  if (mcs > 2) return std::nullopt;
  dci.mcs = static_cast<Modulation>(mcs);
  return dci;
}

namespace {

constexpr std::size_t kDciCodeword = 16 + 16;  // DCI + CRC16

// Calls fn(k) for each control-region subcarrier, in mapping order:
// symbol 0 minus its CRS positions.
template <class Fn>
void for_each_pdcch_subcarrier(const CellConfig& cfg, Fn&& fn) {
  const std::size_t crs = crs_first_subcarrier(cfg, kPdcchSymbolIndex);
  for (std::size_t k = 0; k < cfg.n_subcarriers(); ++k) {
    if (k % 6 != crs) fn(k);
  }
}

}  // namespace

std::vector<std::size_t> pdcch_subcarriers(const CellConfig& cfg) {
  std::vector<std::size_t> out;
  out.reserve(cfg.n_subcarriers());
  for_each_pdcch_subcarrier(cfg, [&](std::size_t k) { out.push_back(k); });
  return out;
}

void map_pdcch(const CellConfig& cfg, const Dci& dci, ResourceGrid& grid) {
  // The codeword repeats every kDciCodeword / 2 QPSK symbols, so it is
  // modulated once and cycled over the control region.
  std::array<cf32, kDciCodeword / 2> symbols;
  qam_modulate_into(dsp::attach_crc16(dci_to_bits(dci)), Modulation::kQpsk,
                    symbols);
  std::size_t cursor = 0;
  for_each_pdcch_subcarrier(cfg, [&](std::size_t k) {
    grid.at(kPdcchSymbolIndex, k) = symbols[cursor++ % symbols.size()];
    grid.type_at(kPdcchSymbolIndex, k) = ReType::kPdcch;
  });
}

std::optional<Dci> decode_pdcch(const CellConfig& cfg,
                                const ResourceGrid& equalized_grid) {
  std::array<double, kDciCodeword> acc{};
  std::size_t cursor = 0;
  for_each_pdcch_subcarrier(cfg, [&](std::size_t k) {
    const cf32 v = equalized_grid.at(kPdcchSymbolIndex, k);
    acc[cursor % kDciCodeword] += v.real();
    acc[(cursor + 1) % kDciCodeword] += v.imag();
    cursor += 2;
  });
  std::array<std::uint8_t, kDciCodeword> bits{};
  for (std::size_t i = 0; i < kDciCodeword; ++i) {
    bits[i] = acc[i] < 0.0 ? 1 : 0;
  }
  if (!dsp::check_crc16(bits)) return std::nullopt;
  return bits_to_dci(bits);
}

}  // namespace lscatter::lte
