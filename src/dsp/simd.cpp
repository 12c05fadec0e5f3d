#include "dsp/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "core/contracts.hpp"
#include "dsp/simd_tables.hpp"

namespace lscatter::dsp {
namespace {

constexpr int kUnresolved = -1;

// Active tier, resolved once from LSCATTER_SIMD on first use. Relaxed is
// enough: the value is an index into immutable tables, and a racing first
// resolution on two threads computes the same answer.
std::atomic<int> g_tier{kUnresolved};

SimdTier clamp_to_supported(SimdTier t) {
  return simd_tier_supported(t) ? t : SimdTier::kScalar;
}

}  // namespace

const char* to_string(SimdTier t) {
  switch (t) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kAvx2: return "avx2";
  }
  return "?";
}

SimdTier simd_best_supported() {
#if defined(LSCATTER_SIMD_X86)
  // The AVX2 TU is compiled with its own -m flags, so reachability is
  // purely a runtime question answered by cpuid.
  static const SimdTier best =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")
          ? SimdTier::kAvx2
          : SimdTier::kScalar;
  return best;
#else
  return SimdTier::kScalar;
#endif
}

bool simd_tier_supported(SimdTier t) {
  return static_cast<std::uint8_t>(t) <=
         static_cast<std::uint8_t>(simd_best_supported());
}

SimdTier resolve_simd_tier(const char* spec) {
  if (spec == nullptr || spec[0] == '\0' ||
      std::strcmp(spec, "auto") == 0) {
    return simd_best_supported();
  }
  if (std::strcmp(spec, "scalar") == 0) return SimdTier::kScalar;
  if (std::strcmp(spec, "avx2") == 0) {
    return clamp_to_supported(SimdTier::kAvx2);
  }
  LSCATTER_EXPECT(false, "LSCATTER_SIMD must be scalar, avx2, or auto");
  // Reached only in -DLSCATTER_CHECKS=OFF builds, where the check above
  // compiles out: an unknown spec resolves like "auto".
  return simd_best_supported();
}

SimdTier simd_tier() {
  int t = g_tier.load(std::memory_order_relaxed);
  if (t == kUnresolved) {
    const SimdTier resolved =
        resolve_simd_tier(std::getenv("LSCATTER_SIMD"));
    t = static_cast<int>(resolved);
    g_tier.store(t, std::memory_order_relaxed);
  }
  return static_cast<SimdTier>(t);
}

SimdTier set_simd_tier(SimdTier t) {
  const SimdTier installed = clamp_to_supported(t);
  g_tier.store(static_cast<int>(installed), std::memory_order_relaxed);
  return installed;
}

const SimdKernels& simd_kernels(SimdTier t) {
  LSCATTER_EXPECT(simd_tier_supported(t),
                  "requested SIMD tier is not supported on this host");
#if defined(LSCATTER_SIMD_X86)
  switch (t) {
    case SimdTier::kAvx2: return detail::kAvx2Kernels;
    case SimdTier::kScalar: break;
  }
#else
  (void)t;
#endif
  return detail::kScalarKernels;
}

const SimdKernels& simd_kernels() { return simd_kernels(simd_tier()); }

}  // namespace lscatter::dsp
