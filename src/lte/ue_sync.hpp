#pragma once
// UE cell search: PSS time-domain correlation to find symbol timing and
// N_ID2, then SSS matching to find N_ID1 and the frame boundary. This is
// the "full-power" reference synchronizer — the baseline Fig. 31 measures
// the tag's low-power analog circuit against.

#include <cstdint>
#include <optional>

#include "dsp/types.hpp"
#include "lte/cell_config.hpp"

namespace lscatter::lte {

struct CellSearchResult {
  std::uint16_t n_id_1 = 0;
  std::uint8_t n_id_2 = 0;
  std::uint16_t cell_id = 0;

  /// Sample index (within the searched buffer) of the start of the PSS
  /// symbol's useful part.
  std::size_t pss_useful_start = 0;

  /// Sample index of the start of the frame (subframe 0, symbol 0 CP),
  /// possibly computed to be before the buffer (then it is modulo frame).
  std::size_t frame_start = 0;

  /// True if the PSS was found in subframe 5 rather than subframe 0.
  bool found_in_subframe5 = false;

  /// Peak normalized correlation in [0, 1].
  float pss_metric = 0.0f;
  float sss_metric = 0.0f;
};

class CellSearcher {
 public:
  /// `bandwidth` sets the FFT size the searcher assumes. PSS detection only
  /// needs the central 0.93 MHz, so the searcher is bandwidth-agnostic in
  /// principle; we correlate at the cell's native rate for simplicity.
  explicit CellSearcher(const CellConfig& cfg);

  /// Search a buffer for the PSS, then read the SSS one symbol before
  /// it. Only correlation peaks whose SSS lies inside the buffer (and
  /// whose neighbouring lags do too) are considered; a buffer of 5 ms plus
  /// two symbols always holds one. Returns nullopt when no such peak
  /// exists or none exceeds `min_metric`.
  std::optional<CellSearchResult> search(std::span<const dsp::cf32> samples,
                                         float min_metric = 0.3f) const;

  /// Time-domain PSS replica (useful part, no CP) for a given N_ID2.
  const dsp::cvec& pss_replica(std::uint8_t n_id_2) const;

 private:
  CellConfig cfg_;
  std::array<dsp::cvec, 3> replicas_;
};

}  // namespace lscatter::lte
