#pragma once
// Placement of physical signals into a subframe grid:
//   - PSS: last symbol of slot 0 / slot 10 (subframes 0 and 5, symbol 6)
//   - SSS: the symbol before the PSS (symbol 5)
//   - CRS: antenna port 0, symbols {0, 4} of each slot
// These are the positions the LScatter tag must avoid and the reference
// signals the UE uses for channel estimation / phase-offset elimination.

#include <cstddef>
#include <vector>

#include "lte/cell_config.hpp"
#include "lte/resource_grid.hpp"

namespace lscatter::lte {

/// True iff this subframe carries PSS/SSS (subframe 0 or 5).
bool is_sync_subframe(std::size_t subframe_index);

/// Subframe-symbol indices (0..13) holding PSS / SSS.
inline constexpr std::size_t kPssSymbolIndex = 6;
inline constexpr std::size_t kSssSymbolIndex = 5;

/// CRS symbol indices within a subframe (port 0, normal CP).
inline constexpr std::array<std::size_t, 4> kCrsSymbolIndices = {0, 4, 7, 11};

/// First subcarrier of the 62-wide central sync band.
std::size_t sync_band_first_subcarrier(const CellConfig& cfg);

/// Write PSS + SSS into a sync subframe's grid (also tags RE types).
/// `amplitude` scales the sequences (PSS power boost).
void map_sync_signals(const CellConfig& cfg, std::size_t subframe_index,
                      ResourceGrid& grid, float amplitude = 1.0f);

/// Write port-0 CRS into all four CRS symbols of subframe `subframe_index`
/// (slot numbers 2*sf and 2*sf+1 select the Gold sequence).
void map_crs(const CellConfig& cfg, std::size_t subframe_index,
             ResourceGrid& grid);

/// Subcarrier indices of the CRS in subframe-symbol `l` (l must be one of
/// kCrsSymbolIndices): crs_first_subcarrier(cfg, l) and every 6th after
/// it, 2 per resource block.
std::vector<std::size_t> crs_subcarriers(const CellConfig& cfg,
                                         std::size_t l);
std::size_t crs_first_subcarrier(const CellConfig& cfg, std::size_t l);

/// CRS values (in subcarrier order matching crs_subcarriers) for subframe
/// symbol `l` of subframe `subframe_index`, written into `out` of exactly
/// 2 * cfg.n_rb() elements.
void crs_values_for_symbol_into(const CellConfig& cfg,
                                std::size_t subframe_index, std::size_t l,
                                std::span<dsp::cf32> out);

}  // namespace lscatter::lte
