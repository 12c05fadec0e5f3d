#pragma once
// Fundamental numeric types and constants shared by all lscatter modules.
//
// All sample streams are complex single-precision baseband ("cf32"); any
// numerically sensitive intermediate math (FFT twiddles, phase
// accumulators) is carried out in double precision.

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

namespace lscatter::dsp {

using cf32 = std::complex<float>;
using cf64 = std::complex<double>;
using cvec = std::vector<cf32>;
using fvec = std::vector<float>;
using dvec = std::vector<double>;

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kTwoPi = 2.0 * kPi;

/// Speed of light [m/s]; used by free-space path loss.
inline constexpr double kSpeedOfLight = 299'792'458.0;

/// Thermal noise power spectral density at 290 K [dBm/Hz].
inline constexpr double kThermalNoiseDbmHz = -174.0;

/// Feet to meters (the paper reports all distances in feet).
inline constexpr double kFeetToMeters = 0.3048;

inline double feet_to_meters(double feet) { return feet * kFeetToMeters; }

/// Total energy of a complex vector: sum |x|^2.
double energy(std::span<const cf32> x);

/// Mean power of a complex vector: energy / size. Returns 0 for empty input.
double mean_power(std::span<const cf32> x);

/// Root-mean-square amplitude.
double rms(std::span<const cf32> x);

/// Scale a vector in place so its mean power equals `target_power`.
void normalize_power(std::span<cf32> x, double target_power = 1.0);

/// Element-wise a .* b (sizes must match).
cvec multiply(std::span<const cf32> a, std::span<const cf32> b);  // lint-ok: into — setup/test convenience, hot paths multiply in place

/// In-place scalar multiply.
void scale(std::span<cf32> x, float s);
void scale(std::span<cf32> x, cf32 s);

/// Sum of elements.
cf32 sum(std::span<const cf32> x);

/// Inner product <a, b> = sum a_i * conj(b_i).
cf32 inner_product(std::span<const cf32> a, std::span<const cf32> b);

}  // namespace lscatter::dsp
