#include "dsp/types.hpp"

#include <cassert>
#include <cmath>

namespace lscatter::dsp {

double energy(std::span<const cf32> x) {
  double e = 0.0;
  for (const cf32 v : x) e += static_cast<double>(std::norm(v));
  return e;
}

double mean_power(std::span<const cf32> x) {
  if (x.empty()) return 0.0;
  return energy(x) / static_cast<double>(x.size());
}

double rms(std::span<const cf32> x) { return std::sqrt(mean_power(x)); }

void normalize_power(std::span<cf32> x, double target_power) {
  const double p = mean_power(x);
  if (p <= 0.0) return;
  const float s = static_cast<float>(std::sqrt(target_power / p));
  for (cf32& v : x) v *= s;
}

cvec multiply(std::span<const cf32> a, std::span<const cf32> b) {
  assert(a.size() == b.size());
  cvec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

void scale(std::span<cf32> x, float s) {
  for (cf32& v : x) v *= s;
}

void scale(std::span<cf32> x, cf32 s) {
  for (cf32& v : x) v *= s;
}

cf32 sum(std::span<const cf32> x) {
  cf64 acc{0.0, 0.0};
  for (const cf32 v : x) acc += cf64{v.real(), v.imag()};
  return cf32{static_cast<float>(acc.real()), static_cast<float>(acc.imag())};
}

cf32 inner_product(std::span<const cf32> a, std::span<const cf32> b) {
  assert(a.size() == b.size());
  cf64 acc{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    const cf64 av{a[i].real(), a[i].imag()};
    const cf64 bv{b[i].real(), -b[i].imag()};
    acc += av * bv;
  }
  return cf32{static_cast<float>(acc.real()), static_cast<float>(acc.imag())};
}

}  // namespace lscatter::dsp
