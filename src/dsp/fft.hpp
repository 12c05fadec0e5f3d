#pragma once
// Fast Fourier transform.
//
// LTE needs FFT sizes {128, 256, 512, 1024, 1536, 2048}. All but 1536 are
// powers of two and use an iterative radix-2 Cooley-Tukey kernel with
// precomputed double-precision twiddles. 1536 (the 15 MHz numerology) and
// any other size go through Bluestein's chirp-z algorithm, which reduces an
// arbitrary-length DFT to a power-of-two convolution.
//
// Conventions: forward() computes X_k = sum_n x_n e^{-j2πnk/N} (no
// scaling); inverse() computes x_n = (1/N) sum_k X_k e^{+j2πnk/N}, so
// inverse(forward(x)) == x.
//
// Hot-path memory discipline (DESIGN.md §10): the transforms work on
// double-precision scratch held in a Workspace — either one the caller
// owns (make_workspace()) or, for the convenience overloads without a
// Workspace argument, a per-thread scratch that grows to the largest size
// seen and is then reused. After warm-up no in-place transform heap-
// allocates. The plan itself is immutable after construction, so one plan
// may be shared by any number of threads, each with its own Workspace.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "dsp/types.hpp"

namespace lscatter::dsp {

class FftPlan {
 public:
  /// Reusable transform scratch: the cf64 working buffer plus the
  /// Bluestein convolution buffer. One Workspace serves plans of any
  /// size (it grows to the largest plan it has been used with and never
  /// shrinks); it must not be shared between threads concurrently.
  class Workspace {
   public:
    Workspace();
    ~Workspace();
    Workspace(Workspace&&) noexcept;
    Workspace& operator=(Workspace&&) noexcept;
    Workspace(const Workspace&) = delete;
    Workspace& operator=(const Workspace&) = delete;

    /// Bytes of scratch currently held.
    std::size_t bytes() const;

   private:
    friend class FftPlan;
    /// Grow (never shrink) to serve an n-point transform whose Bluestein
    /// convolution length is m (0 for power-of-two plans). Allocates only
    /// when capacity actually grows; updates the process-wide
    /// fft_runtime_stats() byte accounting.
    void reserve(std::size_t n, std::size_t m);

    std::vector<cf64> a_;         // conversion / working buffer (>= n)
    std::vector<cf64> u_;         // Bluestein u(m) buffer (>= m)
    std::size_t accounted_ = 0;   // bytes currently charged to the gauge
  };

  /// Builds a plan for length n (any n >= 1).
  explicit FftPlan(std::size_t n);
  ~FftPlan();

  FftPlan(FftPlan&&) noexcept;
  FftPlan& operator=(FftPlan&&) noexcept;
  FftPlan(const FftPlan&) = delete;
  FftPlan& operator=(const FftPlan&) = delete;

  std::size_t size() const { return n_; }

  /// A Workspace pre-sized for this plan (no further allocation when used
  /// with transforms of this plan only).
  Workspace make_workspace() const;

  /// Out-of-place transforms. `in.size()` must equal size().
  cvec forward(std::span<const cf32> in) const;  // lint-ok: into — use forward_inplace
  cvec inverse(std::span<const cf32> in) const;  // lint-ok: into — use inverse_inplace

  /// In-place transforms on a buffer of exactly size() elements, using
  /// the calling thread's shared scratch (allocation-free after the
  /// thread's first call at this size class).
  void forward_inplace(std::span<cf32> data) const;
  void inverse_inplace(std::span<cf32> data) const;

  /// Same, with caller-owned scratch — for tight loops that want
  /// deterministic memory ownership (DESIGN.md §10).
  void forward_inplace(std::span<cf32> data, Workspace& ws) const;
  void inverse_inplace(std::span<cf32> data, Workspace& ws) const;

  /// Double-precision transforms operating directly on the caller's
  /// buffer — no cf32 conversion. Power-of-two plans need no scratch at
  /// all (the radix-2 kernel runs truly in place; used by the FFT
  /// correlator); other sizes borrow the calling thread's Bluestein
  /// scratch. inverse_inplace64 applies the 1/N scaling. On a widened
  /// cf32 buffer, narrowing the result gives exactly what
  /// forward_inplace/inverse_inplace compute (test_dsp_fft pins it).
  void forward_inplace64(std::span<cf64> data) const;
  void inverse_inplace64(std::span<cf64> data) const;

 private:
  void run_with(std::span<cf32> data, Workspace& ws, bool invert) const;

  struct Impl;
  std::size_t n_;
  std::unique_ptr<Impl> impl_;
};

/// One-shot helpers (plan cached per size in a small internal table).
cvec fft(std::span<const cf32> in);   // lint-ok: into — one-shot helper allocates by design
cvec ifft(std::span<const cf32> in);  // lint-ok: into — one-shot helper allocates by design

/// The process-wide per-size plan cache behind fft()/ifft(). The read
/// path takes a shared lock only, so concurrent sim_pool workers hitting
/// a warm cache never serialize; a miss upgrades to an exclusive lock to
/// build the plan. The returned reference stays valid for the process
/// lifetime.
const FftPlan& cached_fft_plan(std::size_t n);

/// Cumulative runtime statistics for the plan cache and the transform
/// workspaces. dsp sits *below* the obs layer, so these are plain
/// atomics here; obs publishes them as `dsp.fft.plan_cache_{hits,misses}`
/// counters and the `dsp.fft.workspace_bytes` gauge at report time
/// (src/obs/report.cpp).
struct FftRuntimeStats {
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::uint64_t workspace_bytes = 0;       // live scratch, all workspaces
  std::uint64_t workspace_bytes_peak = 0;  // high-water of the above
};
FftRuntimeStats fft_runtime_stats();

/// True if n is a power of two.
constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// Circularly shift a spectrum so DC moves to the center (like fftshift).
cvec fftshift(std::span<const cf32> in);  // lint-ok: into — plotting/debug helper, not a hot path

}  // namespace lscatter::dsp
