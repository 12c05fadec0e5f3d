#pragma once
// Additive white Gaussian noise.

#include "dsp/rng.hpp"
#include "dsp/units.hpp"
#include "dsp/types.hpp"

namespace lscatter::channel {

/// Add complex AWGN with total power `noise_power` (linear, same units as
/// the signal's power) to x in place. The result and `rng` match a
/// per-sample `rng.complex_normal(noise_power)` loop bit for bit
/// (Rng::add_complex_normal); a power <= 0 adds nothing.
void add_awgn(std::span<dsp::cf32> x, double noise_power, dsp::Rng& rng);

/// Add AWGN at a given SNR relative to the *measured* mean power of x.
void add_awgn_snr(std::span<dsp::cf32> x, dsp::Db snr, dsp::Rng& rng);

}  // namespace lscatter::channel
