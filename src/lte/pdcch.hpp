#pragma once
// Control channel (PDCCH-lite). Real LTE announces each subframe's
// scheduling on the PDCCH; without it a UE cannot tell data REs from
// unallocated ones. This simplified DCI carries exactly what our
// scheduler randomizes — the per-symbol center-RB activity mask and the
// MCS — QPSK-mapped with repetition + CRC-16 onto the first OFDM symbol's
// non-CRS REs (the spec's control region).
//
// With this, the UE (and the ambient reconstructor) can derive the
// complete RE-type map of a subframe from decoded broadcast information
// alone: PSS/SSS positions are fixed, CRS comes from the cell identity,
// PBCH from the frame structure, and data/unused from the DCI.

#include <cstdint>
#include <optional>

#include "lte/cell_config.hpp"
#include "lte/qam.hpp"
#include "lte/resource_grid.hpp"

namespace lscatter::lte {

struct Dci {
  /// Bit l set => the central 6 RBs carry PDSCH in subframe symbol l.
  std::uint16_t center_active_mask = 0x3FFF;
  Modulation mcs = Modulation::kQam16;

  bool operator==(const Dci&) const = default;
  bool center_active(std::size_t l) const {
    return (center_active_mask >> l) & 1u;
  }
};

/// The control-region symbol (first symbol of the subframe).
inline constexpr std::size_t kPdcchSymbolIndex = 0;

/// 16 DCI payload bits: 14 mask + 2 MCS.
std::array<std::uint8_t, 16> dci_to_bits(const Dci& dci);
std::optional<Dci> bits_to_dci(std::span<const std::uint8_t> bits);

/// Map the DCI into the grid's control region (tags REs as kPdcch).
void map_pdcch(const CellConfig& cfg, const Dci& dci, ResourceGrid& grid);

/// Blind decode from an equalized grid; nullopt on CRC failure.
std::optional<Dci> decode_pdcch(const CellConfig& cfg,
                                const ResourceGrid& equalized_grid);

/// Control-region subcarriers (symbol 0, CRS excluded), mapping order.
std::vector<std::size_t> pdcch_subcarriers(const CellConfig& cfg);

}  // namespace lscatter::lte
