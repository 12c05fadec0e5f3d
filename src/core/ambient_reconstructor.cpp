#include "core/ambient_reconstructor.hpp"

#include <cmath>

#include "dsp/db.hpp"
#include "lte/pbch.hpp"
#include "lte/pdcch.hpp"
#include "lte/qam.hpp"
#include "lte/signal_map.hpp"

namespace lscatter::core {

using dsp::cf32;

namespace {

// Zero-forcing equalization of one RE.
inline cf32 equalize(cf32 y, cf32 h) {
  const float p = std::norm(h);
  return p > 1e-12f ? y * std::conj(h) / p : y;
}

}  // namespace

AmbientReconstructor::Work::Work(const lte::CellConfig& cell)
    : rx(cell),
      rebuilt(cell),
      data_k(cell.n_subcarriers()),
      slice(cell.n_subcarriers()),
      bits(6 * cell.n_subcarriers()) {}  // 64QAM: 6 bits per RE

AmbientReconstructor::AmbientReconstructor(const lte::CellConfig& cell)
    : cell_(cell), ue_(cell), remod_(cell) {}

AmbientReconstructor::Work& AmbientReconstructor::prepare(
    std::span<const cf32> rx_direct, std::size_t subframe_index) {
  owner_.check(
      "AmbientReconstructor called from a second thread; it is "
      "single-owner (use one reconstructor per stream)");
  if (!work_) work_.emplace(cell_);
  Work& w = *work_;
  ue_.demodulate_grid_into(rx_direct, w.rx);
  ue_.estimate_channel_into(w.rx, subframe_index, w.est);
  return w;
}

std::size_t AmbientReconstructor::slice_data(Work& w,
                                             const lte::ResourceGrid& layout,
                                             std::uint16_t center_gaps,
                                             lte::Modulation m) {
  const std::size_t n_sc = cell_.n_subcarriers();
  const std::size_t center_first = n_sc / 2 - 36;
  const std::size_t bps = lte::bits_per_symbol(m);
  std::size_t total = 0;
  for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
    const auto types = layout.symbol_types(l);
    const bool gap = (center_gaps >> l) & 1u;
    std::size_t n = 0;
    for (std::size_t k = 0; k < n_sc; ++k) {
      if (types[k] != lte::ReType::kData) continue;
      if (gap && k >= center_first && k < center_first + 72) continue;
      w.data_k[n++] = static_cast<std::uint16_t>(k);
    }

    // Equalize, then one demap and one remap call for the whole symbol.
    const auto y = w.rx.symbol(l);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = w.data_k[i];
      w.slice[i] = equalize(y[k], w.est.h[k]);
    }
    const std::span<cf32> slice(w.slice.data(), n);
    const std::span<std::uint8_t> bits(w.bits.data(), n * bps);
    lte::qam_demodulate_into(slice, m, bits);
    lte::qam_modulate_into(bits, m, slice);

    const auto out = w.rebuilt.symbol(l);
    for (std::size_t i = 0; i < n; ++i) out[w.data_k[i]] = slice[i];
    total += n;
  }
  return total;
}

ReconstructionResult AmbientReconstructor::reconstruct(
    std::span<const cf32> rx_direct, const lte::SubframeTx& truth,
    lte::Modulation modulation) {
  Work& w = prepare(rx_direct, truth.subframe_index);

  // Known signals (PSS/SSS/CRS/PBCH/PDCCH) are deterministic once the UE
  // has acquired the cell (identity, frame timing, MIB, DCI): take them
  // from the TX grid. Unused REs stay empty; the slicer overwrites data.
  const std::size_t n_sc = cell_.n_subcarriers();
  for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
    for (std::size_t k = 0; k < n_sc; ++k) {
      w.rebuilt.at(l, k) = truth.grid.type_at(l, k) == lte::ReType::kUnused
                               ? cf32{}
                               : truth.grid.at(l, k);
    }
  }

  ReconstructionResult out;
  out.re_total = slice_data(w, truth.grid, 0, modulation);
  for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
    for (std::size_t k = 0; k < n_sc; ++k) {
      if (truth.grid.type_at(l, k) == lte::ReType::kData &&
          std::abs(w.rebuilt.at(l, k) - truth.grid.at(l, k)) > 1e-3f) {
        ++out.re_errors;
      }
    }
  }
  out.samples.resize(cell_.samples_per_subframe());
  remod_.modulate_into(w.rebuilt, out.samples);
  return out;
}

std::optional<ReconstructionResult> AmbientReconstructor::reconstruct_blind(
    std::span<const cf32> rx_direct, std::size_t subframe_index,
    bool pbch_enabled, dsp::Db sync_boost_db) {
  ReconstructionResult out;
  out.samples.resize(cell_.samples_per_subframe());
  const auto n = reconstruct_blind_into(rx_direct, subframe_index,
                                        pbch_enabled, sync_boost_db,
                                        out.samples);
  if (!n) return std::nullopt;
  out.re_total = *n;
  return out;
}

std::optional<std::size_t> AmbientReconstructor::reconstruct_blind_into(
    std::span<const cf32> rx_direct, std::size_t subframe_index,
    bool pbch_enabled, dsp::Db sync_boost_db, std::span<cf32> out) {
  LSCATTER_EXPECT(out.size() == cell_.samples_per_subframe(),
                  "output must hold exactly one subframe of samples");
  Work& w = prepare(rx_direct, subframe_index);
  const std::size_t n_sc = cell_.n_subcarriers();

  // 1) Decode the DCI from the control region. The equalized symbol is
  //    staged in the rebuilt grid, which step 2 clears.
  const auto y0 = w.rx.symbol(lte::kPdcchSymbolIndex);
  const auto staged = w.rebuilt.symbol(lte::kPdcchSymbolIndex);
  for (std::size_t k = 0; k < n_sc; ++k) {
    staged[k] = equalize(y0[k], w.est.h[k]);
  }
  const auto dci = lte::decode_pdcch(cell_, w.rebuilt);
  if (!dci) return std::nullopt;

  // 2) Regenerate everything deterministic. Each mapper tags the REs it
  //    writes, so what is still kData afterwards — minus the center-RB
  //    gaps the DCI announced (none at 1.4 MHz, matching the eNodeB) — is
  //    the data layout.
  w.rebuilt.clear();
  const std::size_t sf_in_frame = subframe_index % lte::kSubframesPerFrame;
  lte::map_sync_signals(cell_, sf_in_frame, w.rebuilt,
                        static_cast<float>(sync_boost_db.amplitude()));
  lte::map_crs(cell_, subframe_index, w.rebuilt);
  if (pbch_enabled && sf_in_frame == 0) {
    lte::Mib mib;
    mib.bandwidth = cell_.bandwidth;
    mib.sfn = static_cast<std::uint16_t>(
        (subframe_index / lte::kSubframesPerFrame) & 0x3FF);
    lte::map_pbch(cell_, mib, w.rebuilt);
  }
  lte::map_pdcch(cell_, *dci, w.rebuilt);
  const auto center_gaps =
      n_sc > 72 ? static_cast<std::uint16_t>(~dci->center_active_mask & 0x3FFF)
                : std::uint16_t{0};

  // 3) Data REs: hard decisions at the announced MCS.
  const std::size_t n = slice_data(w, w.rebuilt, center_gaps, dci->mcs);
  remod_.modulate_into(w.rebuilt, out);
  return n;
}

}  // namespace lscatter::core
