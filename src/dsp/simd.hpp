#pragma once
// Runtime-dispatched SIMD kernel layer for the DSP hot loops
// (DESIGN.md §14).
//
// The four hot kernels of the receive chain — the radix-2 FFT
// butterflies, the correlation MACs, QAM demapping, and the per-unit
// phase/accumulation machinery of the Eq. 7 offset search — plus the
// channel's Box–Muller AWGN step are compiled twice (scalar, AVX2+FMA)
// into one binary and selected once at runtime from a cached
// function-pointer table:
//
//   const SimdKernels& k = simd_kernels();   // active tier's table
//   k.corr_mac(sig, pat, m, &ar, &ai);
//
// Tier selection: the first simd_kernels()/simd_tier() call resolves the
// LSCATTER_SIMD env var (scalar | avx2 | auto; auto and unset pick the
// best tier this CPU supports, avx2 on a CPU without AVX2+FMA runs
// scalar). Tests and benches may switch tiers programmatically with
// set_simd_tier(). The AVX2 tier exists only on x86 builds with the
// LSCATTER_SIMD CMake option ON; everywhere else the table degenerates
// to the scalar tier and dispatch stays valid.
//
// Contracts shared by every tier of every kernel:
//   * identical mathematical results; floating-point sums may differ in
//     association only, bounded by the scalar-vs-SIMD equivalence suites
//     (<= 1e-4 relative on random + Zadoff-Chu inputs, bit-exact for the
//     QAM hard decisions and for box_muller_add);
//   * no alignment requirement — all tiers issue unaligned loads/stores,
//     so std::vector / span buffers need no special allocator (32-byte
//     alignment still helps AVX2 throughput; see DESIGN.md §14);
//   * no heap allocation, no locks, no global state.

#include <cstddef>
#include <cstdint>

#include "dsp/types.hpp"

namespace lscatter::dsp {

// kAvx2 keeps its historical value 2, so the dsp.simd.tier gauge stays
// comparable with older run-registry records.
enum class SimdTier : std::uint8_t { kScalar = 0, kAvx2 = 2 };

const char* to_string(SimdTier t);

/// Hot-loop kernel table. One instance per tier; all entries non-null.
struct SimdKernels {
  SimdTier tier = SimdTier::kScalar;

  /// Iterative radix-2 DIT butterflies on interleaved cf64 that is
  /// already in bit-reversed order (the caller permutes; dsp/fft.cpp folds
  /// it into its widening load). `twiddle` holds the n/2 forward
  /// twiddles; `invert` conjugates them via a folded sign (exact for the
  /// forward path). Power-of-two n only.
  void (*fft_radix2)(cf64* a, std::size_t n, const cf64* twiddle,
                     bool invert) = nullptr;

  /// Correlation MAC: *ar/*ai += sum_k s[k] * conj(p[k]), accumulated in
  /// double.
  void (*corr_mac)(const cf32* s, const cf32* p, std::size_t m, double* ar,
                   double* ai) = nullptr;

  /// Elementwise spectral product x[k] *= h[k] on cf64 (overlap-save
  /// frequency-domain multiply).
  void (*cmul64)(cf64* x, const cf64* h, std::size_t n) = nullptr;

  /// Per-unit conjugate product z[k] = a[k] * conj(b[k]) on cf32 — the
  /// tag demod chain's rx * conj(ambient) step.
  void (*conj_mul)(const cf32* a, const cf32* b, cf32* z,
                   std::size_t n) = nullptr;

  /// *ar/*ai += sum_k v[k]; *abs_sum += sum_k |v[k]| (double accumulate).
  void (*sum_abs)(const cf32* v, std::size_t n, double* ar, double* ai,
                  double* abs_sum) = nullptr;

  /// Pattern-masked sums for the Eq. 7 offset search: *sel_r/*sel_i +=
  /// sum over k with pattern[k] != 0 of v[k]; *all_r/*all_i += sum_k
  /// v[k]; *abs_sum += sum_k |v[k]|. The ±1-signed preamble correlation
  /// is then 2*sel - all.
  void (*pattern_sums)(const cf32* v, const std::uint8_t* pattern,
                       std::size_t n, double* sel_r, double* sel_i,
                       double* all_r, double* all_i,
                       double* abs_sum) = nullptr;

  /// Hard-decision QAM demappers (TS 36.211 §7.1 constellations, unit
  /// average power): n symbols in, bits_per_symbol * n bits out (one bit
  /// per byte, values 0/1). Bit-exact across tiers.
  void (*qam_demap_qpsk)(const cf32* sym, std::size_t n,
                         std::uint8_t* bits) = nullptr;
  void (*qam_demap16)(const cf32* sym, std::size_t n,
                      std::uint8_t* bits) = nullptr;
  void (*qam_demap64)(const cf32* sym, std::size_t n,
                      std::uint8_t* bits) = nullptr;

  /// Box–Muller AWGN (Rng::add_complex_normal, DESIGN.md §17): for each
  /// i, with r = sqrt(-2 log u1[i]) and a = 2π·u2[i], x[i] +=
  /// {float(scale·(r·cos a)), float(scale·(r·sin a))}, every step
  /// rounded as Rng::normal rounds it. u1 in (0, 1), u2 in [0, 1).
  /// Bit-exact across tiers: a vector tier keeps a lane only where its
  /// error bound cannot change the float, and recomputes the rest with
  /// the scalar entry.
  void (*box_muller_add)(const double* u1, const double* u2, std::size_t n,
                         double scale, cf32* x) = nullptr;
};

/// Highest tier this binary + CPU can run (scalar when the AVX2 TU was
/// compiled out: -DLSCATTER_SIMD=OFF or a non-x86 target).
SimdTier simd_best_supported();

/// True if `t` can run here (scalar always can).
bool simd_tier_supported(SimdTier t);

/// Resolve an LSCATTER_SIMD-style spec to a runnable tier. nullptr, ""
/// and "auto" pick simd_best_supported(); "scalar" is scalar; "avx2" is
/// AVX2 where supported and scalar elsewhere. Any other value is a
/// contract violation (and, in -DLSCATTER_CHECKS=OFF builds, which
/// compile that check out, resolves like "auto").
SimdTier resolve_simd_tier(const char* spec);

/// Active tier: the first call resolves the LSCATTER_SIMD env var; later
/// calls return the cached choice (or whatever set_simd_tier installed).
SimdTier simd_tier();

/// Force the active tier (an unsupported tier installs scalar; returns
/// the tier actually installed). Takes effect for subsequent
/// simd_kernels() calls on all threads — meant for tests and benches,
/// not for flipping mid-pipeline.
SimdTier set_simd_tier(SimdTier t);

/// Kernel table of the active tier.
const SimdKernels& simd_kernels();

/// Kernel table of an explicit tier (must be supported).
const SimdKernels& simd_kernels(SimdTier t);

}  // namespace lscatter::dsp
