#pragma once
// Deterministic random number generation.
//
// Everything stochastic in the simulator (payload bits, fading taps,
// shadowing, traffic bursts, AWGN) draws from this generator so that every
// test and bench is reproducible from a printed seed. The core is a PCG32
// stream (O'Neill 2014): tiny state, excellent statistical quality, and —
// unlike std::mt19937 — identical output across standard libraries.

#include <cstdint>
#include <span>
#include <vector>

#include "dsp/types.hpp"

namespace lscatter::dsp {

/// Derive the seed for drop `index` of a Monte-Carlo sweep rooted at
/// `base_seed`. SplitMix64-style finalizer (Steele et al. 2014): the
/// golden-gamma step decorrelates consecutive indices and the two
/// xor-multiply rounds avalanche every input bit across the output, so
/// distinct drops get statistically independent PCG32 streams. Pure
/// function of (base_seed, index) — the foundation of the sim pool's
/// bit-identical-at-any-thread-count guarantee (DESIGN.md §9).
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Uniform 32 random bits.
  std::uint32_t next_u32();

  /// Uniform 64 random bits.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint32_t uniform_int(std::uint32_t n);

  /// Standard normal (Box-Muller, cached second deviate).
  double normal();

  /// Normal with given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Circularly-symmetric complex Gaussian with E[|z|^2] = variance.
  cf32 complex_normal(double variance = 1.0);

  /// x[i] += complex_normal(variance) for every i, in order: x and the
  /// generator end bit for bit as that loop leaves them. The uniforms
  /// are drawn in blocks in the loop's order and turned into noise by
  /// the SIMD tier's exact box_muller_add kernel (DESIGN.md §17).
  void add_complex_normal(std::span<cf32> x, double variance);

  /// Bernoulli with probability p of returning true.
  bool bernoulli(double p);

  /// Exponential with given mean.
  double exponential(double mean);

  /// n random bits packed one per element (0/1).
  std::vector<std::uint8_t> bits(std::size_t n);

  /// Fork a statistically independent child generator. Used to give each
  /// subsystem (noise, fading, traffic, ...) its own stream so that adding
  /// draws in one subsystem never perturbs another.
  Rng fork();

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace lscatter::dsp
