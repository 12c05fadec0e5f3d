#pragma once
// Private glue between the dispatcher (simd.cpp) and the per-tier kernel
// translation units (kernels_scalar.cpp / kernels_avx2.cpp). Not
// installed into the public API — include only from dsp/ kernel TUs.
//
// Each tier TU defines one extern table. The AVX2 TU is compiled with
// per-file -mavx2 -mfma flags (src/CMakeLists.txt) and exists only when
// LSCATTER_SIMD_X86 is defined; on other targets (or
// -DLSCATTER_SIMD=OFF) the dispatcher sees only the scalar table.

#include "dsp/simd.hpp"

namespace lscatter::dsp::detail {

extern const SimdKernels kScalarKernels;
#if defined(LSCATTER_SIMD_X86)
extern const SimdKernels kAvx2Kernels;
#endif

// The scalar tier's box_muller_add, named so the AVX2 tier can send the
// lanes its error bound cannot decide back to it (DESIGN.md §17). It
// lives in kernels_scalar.cpp, which is compiled without -mfma, so no
// contraction can change its rounding.
void box_muller_add_scalar(const double* u1, const double* u2,
                           std::size_t n, double scale, cf32* x);

// QAM hard-decision thresholds shared by every tier (and by lte/qam.cpp,
// whose constellation constants these must match bit-for-bit so the
// demappers stay bit-exact across tiers): TS 36.211 unit-average-power
// grids put the 16QAM axis decision at 2/sqrt(10) and the 64QAM axis
// decisions at 4/sqrt(42) and 2/sqrt(42).
inline constexpr double kQamSqrt10 = 3.16227766016837952;
inline constexpr double kQamSqrt42 = 6.48074069840786023;
inline constexpr float kQam16Thresh = static_cast<float>(2.0 / kQamSqrt10);
inline constexpr float kQam64ThreshMid = static_cast<float>(4.0 / kQamSqrt42);
inline constexpr float kQam64ThreshLo = static_cast<float>(2.0 / kQamSqrt42);

}  // namespace lscatter::dsp::detail
