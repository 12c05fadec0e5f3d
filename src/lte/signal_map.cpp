#include "lte/signal_map.hpp"

#include <cassert>

#include "core/contracts.hpp"
#include "lte/sequences.hpp"

namespace lscatter::lte {

using dsp::cf32;

bool is_sync_subframe(std::size_t subframe_index) {
  const std::size_t sf = subframe_index % kSubframesPerFrame;
  return sf == 0 || sf == 5;
}

std::size_t sync_band_first_subcarrier(const CellConfig& cfg) {
  return cfg.n_subcarriers() / 2 - 31;
}

void map_sync_signals(const CellConfig& cfg, std::size_t subframe_index,
                      ResourceGrid& grid, float amplitude) {
  if (!is_sync_subframe(subframe_index)) return;
  const bool sf5 = (subframe_index % kSubframesPerFrame) == 5;
  const std::size_t first = sync_band_first_subcarrier(cfg);

  const auto pss = pss_sequence(cfg.n_id_2);
  const auto sss = sss_sequence(cfg.n_id_1, cfg.n_id_2, sf5);
  for (std::size_t n = 0; n < kSyncSubcarriers; ++n) {
    grid.at(kPssSymbolIndex, first + n) = pss[n] * amplitude;
    grid.type_at(kPssSymbolIndex, first + n) = ReType::kPss;
    grid.at(kSssSymbolIndex, first + n) = sss[n] * amplitude;
    grid.type_at(kSssSymbolIndex, first + n) = ReType::kSss;
  }

  // The 5 guard subcarriers on each side of PSS/SSS within the central 6 RB
  // are left empty (TS 36.211 maps nothing there).
  for (std::size_t g = 1; g <= 5; ++g) {
    for (const std::size_t l : {kPssSymbolIndex, kSssSymbolIndex}) {
      if (first >= g) {
        grid.at(l, first - g) = cf32{};
        grid.type_at(l, first - g) = ReType::kUnused;
      }
      const std::size_t hi = first + kSyncSubcarriers + g - 1;
      if (hi < cfg.n_subcarriers()) {
        grid.at(l, hi) = cf32{};
        grid.type_at(l, hi) = ReType::kUnused;
      }
    }
  }
}

std::size_t crs_first_subcarrier(const CellConfig& cfg, std::size_t l) {
  const std::size_t v = (l == 4 || l == 11) ? 3 : 0;  // port 0
  const std::size_t v_shift = cfg.cell_id() % 6;
  return (v + v_shift) % 6;
}

std::vector<std::size_t> crs_subcarriers(const CellConfig& cfg,
                                         std::size_t l) {
  const std::size_t first = crs_first_subcarrier(cfg, l);
  std::vector<std::size_t> out;
  out.reserve(2 * cfg.n_rb());
  for (std::size_t m = 0; m < 2 * cfg.n_rb(); ++m) {
    out.push_back(6 * m + first);
  }
  return out;
}

void crs_values_for_symbol_into(const CellConfig& cfg,
                                std::size_t subframe_index, std::size_t l,
                                std::span<cf32> out) {
  assert(l == 0 || l == 4 || l == 7 || l == 11);
  LSCATTER_EXPECT(out.size() == 2 * cfg.n_rb(),
                  "CRS output must hold exactly 2 * n_rb values");
  const std::size_t ns =
      2 * (subframe_index % kSubframesPerFrame) + (l >= kSymbolsPerSlot);
  // Center the cell's 2*N_RB CRS values within the 2*kMaxRb master set.
  crs_values_into(cfg.cell_id(), ns, l % kSymbolsPerSlot,
                  kMaxRb - cfg.n_rb(), out);
}

void map_crs(const CellConfig& cfg, std::size_t subframe_index,
             ResourceGrid& grid) {
  std::array<cf32, 2 * kMaxRb> buf;
  const std::span<cf32> values(buf.data(), 2 * cfg.n_rb());
  for (const std::size_t l : kCrsSymbolIndices) {
    crs_values_for_symbol_into(cfg, subframe_index, l, values);
    const std::size_t first = crs_first_subcarrier(cfg, l);
    for (std::size_t m = 0; m < values.size(); ++m) {
      grid.at(l, 6 * m + first) = values[m];
      grid.type_at(l, 6 * m + first) = ReType::kCrs;
    }
  }
}

}  // namespace lscatter::lte
