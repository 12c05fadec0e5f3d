#pragma once
// Small-scale fading: a tapped-delay-line channel with an exponential power
// delay profile. Taps are Rayleigh (NLoS) or Rician (LoS, K-factor on the
// first tap). A channel instance is one static realization ("drop"); the
// evaluation harness redraws per measurement point, which is how the paper
// collects its per-hour / per-distance distributions.

#include <cstddef>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "dsp/units.hpp"

namespace lscatter::channel {

struct FadingProfile {
  /// RMS delay spread. Typical: 50 ns home, 150 ns mall, 200 ns
  /// outdoor street.
  dsp::Seconds rms_delay_spread_s{50e-9};

  /// Number of taps in the delay line.
  std::size_t n_taps = 8;

  /// Rician K-factor applied to the first tap; -inf (use `los=false`)
  /// for pure Rayleigh.
  dsp::Db rician_k_db{10.0};
  bool los = true;

  /// A single-tap unity channel (for calibration / unit tests).
  static FadingProfile flat();
};

/// One flat (single-tap) hop at unit average power: Rician with the
/// profile's K-factor when `profile.los`, Rayleigh otherwise. A
/// backscatter link's double-hop fade is the product of two draws.
dsp::cf32 draw_flat_hop(const FadingProfile& profile, dsp::Rng& rng);

class TdlChannel {
 public:
  /// Draw one realization at the given sample rate. Average power gain is
  /// normalized to 1 so path loss stays in PathLossModel.
  TdlChannel(const FadingProfile& profile, dsp::Hz sample_rate,
             dsp::Rng& rng);

  /// Convolve the channel with `x` ("same"-length output, no leading
  /// transient trimming: tap 0 has zero delay).
  dsp::cvec apply(std::span<const dsp::cf32> x) const;

  /// Frequency response at `n_bins` uniformly spaced baseband bins.
  dsp::cvec frequency_response(std::size_t n_bins) const;

  const dsp::cvec& tap_gains() const { return gains_; }

  /// |h|^2 summed — should be ~1 in expectation.
  double power_gain() const;

 private:
  std::vector<std::size_t> delays_;  // in samples
  dsp::cvec gains_;
};

}  // namespace lscatter::channel
