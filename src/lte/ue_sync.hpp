#pragma once
// UE cell search: PSS correlation to find symbol timing and N_ID2, then
// SSS matching to find N_ID1 and the frame boundary. This is the
// "full-power" reference synchronizer — the baseline Fig. 31 measures the
// tag's low-power analog circuit against.
//
// The PSS occupies the same 62 central subcarriers (0.93 MHz) at every
// bandwidth, so the search runs in that band (DESIGN.md §18): the center
// of the cell is channelized down to 1.92 MS/s, the 1.4 MHz replicas find
// the PSS there, and a frequency-domain estimate at the cell rate then
// puts it on its exact sample.

#include <array>
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

  /// Peak normalized PSS correlation in [0, 1], measured in the
  /// 1.92 MS/s narrow band at every bandwidth. Without noise it is 1.0
  /// at 1.4 MHz and ~0.82-0.91 wider, where the narrow band still holds
  /// some of the neighbouring resource blocks.
  float pss_metric = 0.0f;
  float sss_metric = 0.0f;
};

class CellSearcher {
 public:
  /// `cfg.bandwidth` sets the cell rate and the decimation D = K / 128
  /// down to the narrow band.
  explicit CellSearcher(const CellConfig& cfg);

  /// Search a buffer for the PSS, then read the SSS one symbol before
  /// it. Only narrow-band correlation peaks whose SSS lies inside the
  /// buffer (and whose neighbouring lags do too) are considered, best
  /// first; a peak names the cell only if its timing refines to a PSS
  /// whose SSS and PSS windows lie inside the buffer. A buffer of 5 ms
  /// plus two symbols always holds one. Returns nullopt when no peak
  /// reaches `min_metric` or none refines.
  std::optional<CellSearchResult> search(std::span<const dsp::cf32> samples,
                                         float min_metric = 0.3f) const;

  /// Time-domain PSS replica at the cell rate (useful part, no CP) for a
  /// given N_ID2.
  const dsp::cvec& pss_replica(std::uint8_t n_id_2) const;

 private:
  CellConfig cfg_;
  std::size_t decimation_;
  std::array<dsp::cvec, 3> replicas_;
  std::array<dsp::cvec, 3> narrow_replicas_;
  /// Channelizer lowpass as complex taps (zero imaginary part, so the
  /// correlation MAC kernel applies it); empty at D = 1.
  dsp::cvec lowpass_;
};

}  // namespace lscatter::lte
