#include "lte/enodeb.hpp"

#include <cassert>

#include "dsp/db.hpp"
#include "lte/pbch.hpp"
#include "lte/signal_map.hpp"
#include "lte/transport.hpp"
#include "obs/obs.hpp"

namespace lscatter::lte {

using dsp::cf32;

Enodeb::Enodeb(const Config& config)
    : config_(config),
      modulator_(config.cell),
      rng_(config.seed, 0x9e3779b97f4a7c15ULL) {}

SubframeTx Enodeb::make_subframe(std::size_t subframe_index) {
  LSCATTER_OBS_TIMER("lte.enodeb.subframe");
  LSCATTER_OBS_COUNTER_INC("lte.enodeb.subframes");
  const CellConfig& cell = config_.cell;
  SubframeTx tx{subframe_index, ResourceGrid(cell), {}, {}, {}};

  const float sync_amp =
      static_cast<float>(config_.sync_boost_db.amplitude());
  map_sync_signals(cell, subframe_index, tx.grid, sync_amp);
  map_crs(cell, subframe_index, tx.grid);
  if (config_.enable_pbch && subframe_index % kSubframesPerFrame == 0) {
    Mib mib;
    mib.bandwidth = cell.bandwidth;
    mib.sfn = static_cast<std::uint16_t>(
        (subframe_index / kSubframesPerFrame) & 0x3FF);
    map_pbch(cell, mib, tx.grid);
  }

  // Scheduler: decide whether the central 6 RBs carry data in each of
  // this subframe's symbols (models partial loading seen by the tag's
  // narrowband envelope detector), announce the decision in the DCI, and
  // mark the resulting gaps kUnused.
  const std::size_t n_sc = cell.n_subcarriers();
  const std::size_t center_first = n_sc / 2 - 36;
  const std::size_t center_count = 72;

  // At 1.4 MHz the "center 6 RB" are the whole band; partial loading there
  // would contradict the paper's continuous-LTE observation, so skip it.
  const bool allow_center_gaps = n_sc > 72;

  tx.dci.mcs = config_.modulation;
  tx.dci.center_active_mask = 0x3FFF;
  for (std::size_t l = 0; allow_center_gaps && l < kSymbolsPerSubframe; ++l) {
    const bool is_sync_symbol =
        is_sync_subframe(subframe_index) &&
        (l == kPssSymbolIndex || l == kSssSymbolIndex);
    if (is_sync_symbol) continue;  // center there is sync/guard already
    if (!rng_.bernoulli(config_.center_rb_activity)) {
      tx.dci.center_active_mask = static_cast<std::uint16_t>(
          tx.dci.center_active_mask & ~(1u << l));
      for (std::size_t k = 0; k < center_count; ++k) {
        const std::size_t sc = center_first + k;
        if (tx.grid.type_at(l, sc) == ReType::kData) {
          tx.grid.type_at(l, sc) = ReType::kUnused;
        }
      }
    }
  }

  if (config_.enable_pdcch) map_pdcch(cell, tx.dci, tx.grid);

  // Count data REs after scheduling, draw the transport block, attach CRC,
  // modulate, and map in symbol-major order.
  std::size_t n_data = 0;
  for (std::size_t l = 0; l < kSymbolsPerSubframe; ++l) {
    for (std::size_t k = 0; k < n_sc; ++k) {
      if (tx.grid.type_at(l, k) == ReType::kData) ++n_data;
    }
  }
  const std::size_t bps = bits_per_symbol(config_.modulation);
  const std::size_t n_bits = n_data * bps;
  assert(n_bits > kBlockCrcBits);

  const auto layout = segment(n_bits);
  tx.payload_bits = rng_.bits(info_bits(layout));
  const auto coded = encode_blocks(layout, tx.payload_bits);
  const auto symbols = qam_modulate(coded, config_.modulation);

  std::size_t si = 0;
  for (std::size_t l = 0; l < kSymbolsPerSubframe; ++l) {
    for (std::size_t k = 0; k < n_sc; ++k) {
      if (tx.grid.type_at(l, k) == ReType::kData) {
        tx.grid.at(l, k) = symbols[si++];
      }
    }
  }
  assert(si == symbols.size());

  tx.samples = modulator_.modulate(tx.grid);
  return tx;
}

SubframeTx Enodeb::next_subframe() { return make_subframe(next_index_++); }

}  // namespace lscatter::lte
