#pragma once
// FIR filter design (windowed sinc) and application. Used for the tag's
// band-limited envelope (matching-network model), for spectrum surveys and
// for the cell search's narrow-band channelizer (lte/ue_sync.cpp).

#include <cstddef>

#include "dsp/types.hpp"

namespace lscatter::dsp {

/// Hamming window of length n.
fvec hamming_window(std::size_t n);

/// Hann window of length n.
fvec hann_window(std::size_t n);

/// Windowed-sinc lowpass prototype. `cutoff_norm` is the -6 dB cutoff as a
/// fraction of the sample rate (0 < cutoff_norm < 0.5). Taps are normalized
/// to unity DC gain. `ntaps` should be odd for a symmetric (linear-phase)
/// filter; it is bumped to odd if even.
fvec design_lowpass(double cutoff_norm, std::size_t ntaps);

/// Complex bandpass centered at `center_norm` (fraction of fs, may be
/// negative), bandwidth `bw_norm`. Built by heterodyning a lowpass.
cvec design_bandpass(double center_norm, double bw_norm, std::size_t ntaps);  // lint-ok: into — taps built once at setup, never per-sample

/// Convolve `x` with real taps, "same" length output (group delay
/// compensated for symmetric taps).
cvec filter_same(std::span<const cf32> x, std::span<const float> taps);  // lint-ok: into — analog-frontend model path, not a per-symbol loop

/// Convolve `x` with complex taps, "same" length output.
cvec filter_same(std::span<const cf32> x, std::span<const cf32> taps);  // lint-ok: into — analog-frontend model path, not a per-symbol loop

/// Streaming one-pole IIR: y[n] = a*y[n-1] + (1-a)*x[n]. The building block
/// of the tag's RC circuit simulation.
class OnePole {
 public:
  /// tau and sample period in the same unit (seconds).
  OnePole(double tau_s, double sample_period_s);

  float step(float x);
  void reset(float y0 = 0.0f) { y_ = y0; }
  float value() const { return y_; }
  double alpha() const { return a_; }

 private:
  double a_;
  float y_ = 0.0f;
};

/// Diode-RC envelope stage: charges fast through the diode (small series
/// resistance) and discharges through R with time constant tau. This is the
/// D1/C2/R1 stage of the paper's Figure 7.
class DiodeRc {
 public:
  DiodeRc(double charge_tau_s, double discharge_tau_s,
          double sample_period_s);

  float step(float x);
  void reset(float y0 = 0.0f) { y_ = y0; }
  float value() const { return y_; }

 private:
  double a_charge_;
  double a_discharge_;
  float y_ = 0.0f;
};

}  // namespace lscatter::dsp
