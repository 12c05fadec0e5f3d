#pragma once
// Modulation-offset determination (paper §3.3.2, Eq. 7).
//
// The tag's residual sync error shifts its modulation window by an unknown
// number of basic timing units; the packet preamble (a known ±1 pattern of
// length N) lets the receiver find that shift. Correlating the products
// z_n = r_n conj(x_n) against the pattern is the tractable equivalent of
// Eq. 7's arg-min: at the true offset the terms add coherently as
// g e^{j phi} sum |x|^2, any other offset decorrelates. An exhaustive
// Eq. 7 search over all theta sequences is implemented for tiny N in the
// tests to validate this estimator.

#include <cstdint>
#include <optional>

#include "dsp/types.hpp"

namespace lscatter::core {

struct OffsetSearch {
  /// Offsets tried: [-range, +range] units around the nominal window.
  /// Must cover the residual-sync-error distribution *including tails*
  /// (StatisticalSync sigma = 2 us is ~61 units at 20 MHz; 256 units is
  /// > 4 sigma plus clock drift) — a miss here loses whole packets.
  std::size_t range_units = 256;

  /// Detection threshold on the normalized metric (|correlation| divided
  /// by the sum of |z| in the window; noise-only floors near 1/sqrt(N)).
  float detect_threshold = 0.2f;

  /// Per-subcarrier equalization of the backscatter hop (paper §3.3.1:
  /// "the phase offset is varying on different subcarriers"): estimate an
  /// FIR channel of this many taps from the preamble symbol and divide it
  /// out in the frequency domain before slicing. 0 disables (flat-fading
  /// deployments don't need it); ~8 taps handles indoor delay spreads.
  std::size_t equalizer_taps = 0;
};

struct OffsetResult {
  std::ptrdiff_t offset_units = 0;  // estimated shift of the tag window
  float metric = 0.0f;              // normalized, [0, 1]
  dsp::cf32 gain;                   // g*e^{j phi} estimated at the peak
};

/// Search for the preamble in `z` (products over one useful symbol,
/// z.size() == K). `nominal_start` is where the modulation window would
/// begin with zero sync error ((K - N)/2 plus any configured window
/// offset); `pattern` holds N bits (1 -> +1, 0 -> -1). Returns nullopt if
/// no candidate clears the threshold.
///
/// The searched span is the products the windows cover:
/// z[max(0, nominal - range), min(K, nominal + range + N)). If any
/// product inside it is NaN or ±inf the search returns nullopt — such a
/// metric means nothing, and the FFT correlation would spread it to every
/// offset. Products outside the span are never read.
///
/// The result (presence, offset, metric and gain, bit for bit) is that of
/// the direct search on the active SIMD tier: every offset in ascending
/// order scored by the dsp pattern_sums kernel as |Σ ±z| / Σ|z| (windows
/// with Σ|z| == 0 skipped), the first strict maximum winning. The search
/// itself runs as one FFT correlation and re-scores directly only the
/// offsets its error bounds cannot rule out (DESIGN.md §16).
std::optional<OffsetResult> find_modulation_offset(
    std::span<const dsp::cf32> z, std::span<const std::uint8_t> pattern,
    std::ptrdiff_t nominal_start, const OffsetSearch& search);

}  // namespace lscatter::core
