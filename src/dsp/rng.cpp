#include "dsp/rng.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "dsp/simd.hpp"

namespace lscatter::dsp {

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index) {
  // SplitMix64: advance by the golden gamma, then finalize (variant 13).
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1u) | 1u) {
  next_u32();
  state_ += seed;
  next_u32();
}

std::uint32_t Rng::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint64_t Rng::next_u64() {
  return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint32_t Rng::uniform_int(std::uint32_t n) {
  assert(n > 0);
  // Debiased modulo (Lemire-style rejection).
  const std::uint32_t threshold = (-n) % n;
  for (;;) {
    const std::uint32_t r = next_u32();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller on two uniforms; u1 is kept away from zero for the log.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = r * std::sin(kTwoPi * u2);
  has_cached_normal_ = true;
  return r * std::cos(kTwoPi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

cf32 Rng::complex_normal(double variance) {
  const double s = std::sqrt(variance / 2.0);
  return cf32{static_cast<float>(s * normal()),
              static_cast<float>(s * normal())};
}

void Rng::add_complex_normal(std::span<cf32> x, double variance) {
  if (has_cached_normal_) {
    // The cached deviate would pair each sample's sin with the next
    // sample's cos; no caller gets here, so keep the plain loop for it.
    for (auto& v : x) v += complex_normal(variance);
    return;
  }
  const double s = std::sqrt(variance / 2.0);
  const SimdKernels& k = simd_kernels();
  constexpr std::size_t kBlock = 256;
  std::array<double, kBlock> u1{};
  std::array<double, kBlock> u2{};
  for (std::size_t done = 0; done < x.size(); done += kBlock) {
    const std::size_t n = std::min(kBlock, x.size() - done);
    for (std::size_t i = 0; i < n; ++i) {
      // normal()'s draws: u1 with its retry, then u2.
      do {
        u1[i] = uniform();
      } while (u1[i] <= 1e-300);
      u2[i] = uniform();
    }
    k.box_muller_add(u1.data(), u2.data(), n, s, x.data() + done);
  }
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 1e-300);
  return -mean * std::log(u);
}

std::vector<std::uint8_t> Rng::bits(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(next_u32() & 1u);
  return out;
}

Rng Rng::fork() { return Rng(next_u64(), next_u64() | 1u); }

}  // namespace lscatter::dsp
