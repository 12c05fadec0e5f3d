#include "dsp/fft.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "core/contracts.hpp"
#include "core/thread_safety.hpp"
#include "dsp/simd.hpp"

namespace lscatter::dsp {
namespace {

// Process-wide runtime stats (plain atomics: dsp sits below obs, so the
// registry cannot be referenced from here; obs pulls these at report
// time via fft_runtime_stats()).
std::atomic<std::uint64_t> g_plan_cache_hits{0};
std::atomic<std::uint64_t> g_plan_cache_misses{0};
std::atomic<std::uint64_t> g_workspace_bytes{0};
std::atomic<std::uint64_t> g_workspace_bytes_peak{0};

void raise_workspace_peak(std::uint64_t v) {
  std::uint64_t cur = g_workspace_bytes_peak.load(std::memory_order_relaxed);
  while (v > cur && !g_workspace_bytes_peak.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

// Iterative radix-2 DIT butterflies on a bit-reversed double-precision
// buffer, dispatched through the SIMD kernel table (dsp/simd.hpp): the
// scalar reference lives in kernels_scalar.cpp, the AVX2 tier in
// kernels_avx2.cpp. The indirect call costs one relaxed atomic
// load per transform — noise next to n·log n butterflies.
inline void radix2(cf64* a, std::size_t n, const cf64* twiddle,
                   bool invert) {
  simd_kernels().fft_radix2(a, n, twiddle, invert);
}

// In-place bit-reversal permutation for the buffers that are not widened
// from cf32 on the way in (the cf64 transforms and Bluestein's
// convolution); run_with gathers in bit-reversed order instead.
void bit_reverse(cf64* a, std::size_t n, const std::uint32_t* rev) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = rev[i];
    if (i < j) std::swap(a[i], a[j]);
  }
}

std::vector<std::uint32_t> make_bitrev(std::size_t n) {
  std::vector<std::uint32_t> rev(n, 0);
  std::uint32_t log2n = 0;
  while ((1ull << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t x = static_cast<std::uint32_t>(i);
    std::uint32_t r = 0;
    for (std::uint32_t b = 0; b < log2n; ++b) {
      r = (r << 1) | (x & 1u);
      x >>= 1;
    }
    rev[i] = r;
  }
  return rev;
}

std::vector<cf64> make_twiddles(std::size_t n) {
  std::vector<cf64> tw(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    tw[k] = cf64{std::cos(ang), std::sin(ang)};
  }
  return tw;
}

/// Per-thread scratch behind the Workspace-less transform overloads. Each
/// thread grows its own scratch to the largest plan it touches, then every
/// later transform is allocation-free. Freed (and un-accounted) when the
/// thread exits.
FftPlan::Workspace& thread_workspace() {
  thread_local FftPlan::Workspace ws;
  return ws;
}

}  // namespace

// ---- Workspace ----------------------------------------------------------

FftPlan::Workspace::Workspace() = default;

FftPlan::Workspace::~Workspace() {
  if (accounted_ > 0) {
    g_workspace_bytes.fetch_sub(accounted_, std::memory_order_relaxed);
  }
}

FftPlan::Workspace::Workspace(Workspace&& other) noexcept
    : a_(std::move(other.a_)),
      u_(std::move(other.u_)),
      accounted_(other.accounted_) {
  other.a_.clear();
  other.u_.clear();
  other.accounted_ = 0;
}

FftPlan::Workspace& FftPlan::Workspace::operator=(Workspace&& other) noexcept {
  if (this != &other) {
    if (accounted_ > 0) {
      g_workspace_bytes.fetch_sub(accounted_, std::memory_order_relaxed);
    }
    a_ = std::move(other.a_);
    u_ = std::move(other.u_);
    accounted_ = other.accounted_;
    other.a_.clear();
    other.u_.clear();
    other.accounted_ = 0;
  }
  return *this;
}

std::size_t FftPlan::Workspace::bytes() const {
  return (a_.capacity() + u_.capacity()) * sizeof(cf64);
}

void FftPlan::Workspace::reserve(std::size_t n, std::size_t m) {
  if (a_.size() < n) a_.resize(n);
  if (m > 0 && u_.size() < m) u_.resize(m);
  const std::size_t now = bytes();
  if (now != accounted_) {
    // Capacity only ever grows here, so the delta is non-negative.
    const std::uint64_t total =
        g_workspace_bytes.fetch_add(now - accounted_,
                                    std::memory_order_relaxed) +
        (now - accounted_);
    accounted_ = now;
    raise_workspace_peak(total);
  }
}

// ---- FftPlan ------------------------------------------------------------

struct FftPlan::Impl {
  // Power-of-two path.
  std::vector<cf64> twiddle;
  std::vector<std::uint32_t> bitrev;

  // Bluestein path (empty when n is a power of two).
  std::size_t m = 0;                 // convolution length (power of two)
  std::vector<cf64> chirp;           // b_n = e^{+jπ n^2 / N}
  std::vector<cf64> chirp_fft;       // FFT_m of zero-padded, wrapped chirp
  std::vector<cf64> m_twiddle;
  std::vector<std::uint32_t> m_bitrev;

  /// Forward Bluestein transform of `a` (length n, natural order) using
  /// scratch `u` (length m). Heap-allocation-free. Inverses go through
  /// the conjugate identity (see run_with).
  void bluestein(std::span<cf64> a, std::span<cf64> u) const {
    // X_k = conj(b_k) * sum_n [a_n conj(b_n)] b_{k-n}
    // (complex products spelled out in real arithmetic — see radix2).
    const std::size_t n = a.size();
    for (std::size_t i = 0; i < n; ++i) {
      const cf64 c = chirp[i];  // multiply by conj(c)
      const cf64 x = a[i];
      u[i] = cf64{x.real() * c.real() + x.imag() * c.imag(),
                  x.imag() * c.real() - x.real() * c.imag()};
    }
    std::fill(u.begin() + static_cast<std::ptrdiff_t>(n), u.end(), cf64{});
    bit_reverse(u.data(), m, m_bitrev.data());
    radix2(u.data(), m, m_twiddle.data(), false);
    simd_kernels().cmul64(u.data(), chirp_fft.data(), m);
    bit_reverse(u.data(), m, m_bitrev.data());
    radix2(u.data(), m, m_twiddle.data(), true);
    const double inv_m = 1.0 / static_cast<double>(m);
    for (std::size_t k = 0; k < n; ++k) {
      const cf64 x = u[k];
      const cf64 c = chirp[k];  // multiply by inv_m * conj(c)
      a[k] = cf64{(x.real() * c.real() + x.imag() * c.imag()) * inv_m,
                  (x.imag() * c.real() - x.real() * c.imag()) * inv_m};
    }
  }
};

FftPlan::FftPlan(std::size_t n) : n_(n), impl_(std::make_unique<Impl>()) {
  LSCATTER_EXPECT(n >= 1, "FFT length must be at least 1");
  if (is_power_of_two(n)) {
    impl_->twiddle = make_twiddles(n);
    impl_->bitrev = make_bitrev(n);
    return;
  }
  // Bluestein setup.
  const std::size_t m = next_power_of_two(2 * n - 1);
  impl_->m = m;
  impl_->m_twiddle = make_twiddles(m);
  impl_->m_bitrev = make_bitrev(m);
  impl_->chirp.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Use (i*i mod 2n) to keep the argument small and exact.
    const std::size_t q = (i * i) % (2 * n);
    const double ang = kPi * static_cast<double>(q) / static_cast<double>(n);
    impl_->chirp[i] = cf64{std::cos(ang), std::sin(ang)};
  }
  std::vector<cf64> b(m, cf64{});
  b[0] = impl_->chirp[0];
  for (std::size_t i = 1; i < n; ++i) {
    b[i] = impl_->chirp[i];
    b[m - i] = impl_->chirp[i];
  }
  bit_reverse(b.data(), m, impl_->m_bitrev.data());
  radix2(b.data(), m, impl_->m_twiddle.data(), false);
  impl_->chirp_fft = std::move(b);
}

FftPlan::~FftPlan() = default;
FftPlan::FftPlan(FftPlan&&) noexcept = default;
FftPlan& FftPlan::operator=(FftPlan&&) noexcept = default;

FftPlan::Workspace FftPlan::make_workspace() const {
  Workspace ws;
  ws.reserve(n_, impl_->m);
  return ws;
}

cvec FftPlan::forward(std::span<const cf32> in) const {
  LSCATTER_EXPECT(in.size() == n_, "input length must match the plan size");
  cvec out(in.begin(), in.end());
  forward_inplace(out);
  return out;
}

cvec FftPlan::inverse(std::span<const cf32> in) const {
  LSCATTER_EXPECT(in.size() == n_, "input length must match the plan size");
  cvec out(in.begin(), in.end());
  inverse_inplace(out);
  return out;
}

void FftPlan::run_with(std::span<cf32> data, Workspace& ws,
                       bool invert) const {
  LSCATTER_EXPECT(data.size() == n_, "buffer length must match the plan size");
  ws.reserve(n_, impl_->m);
  const std::span<cf64> a(ws.a_.data(), n_);
  const std::span<cf64> u(ws.u_.data(), impl_->m);
  // IDFT(x) = conj(DFT(conj(x))) / N — valid for both kernels. The
  // conjugate is a negation (not a multiply by -1) so NaN signs flip too.
  // Power-of-two plans widen in bit-reversed order, so the butterflies
  // run on the load directly; Bluestein permutes its own convolution.
  if (impl_->m == 0) {
    const std::uint32_t* rev = impl_->bitrev.data();
    for (std::size_t i = 0; i < n_; ++i) {
      const cf32 x = data[rev[i]];
      a[i] = cf64{x.real(), invert ? -x.imag() : x.imag()};
    }
    radix2(a.data(), n_, impl_->twiddle.data(), false);
  } else {
    for (std::size_t i = 0; i < n_; ++i) {
      const cf32 x = data[i];
      a[i] = cf64{x.real(), invert ? -x.imag() : x.imag()};
    }
    impl_->bluestein(a, u);
  }
  if (!invert) {
    for (std::size_t i = 0; i < n_; ++i)
      data[i] = cf32{static_cast<float>(a[i].real()),
                     static_cast<float>(a[i].imag())};
    return;
  }
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i)
    data[i] = cf32{static_cast<float>(a[i].real() * inv_n),
                   static_cast<float>(-a[i].imag() * inv_n)};
}

void FftPlan::forward_inplace(std::span<cf32> data) const {
  run_with(data, thread_workspace(), false);
}

void FftPlan::inverse_inplace(std::span<cf32> data) const {
  run_with(data, thread_workspace(), true);
}

void FftPlan::forward_inplace(std::span<cf32> data, Workspace& ws) const {
  run_with(data, ws, false);
}

void FftPlan::inverse_inplace(std::span<cf32> data, Workspace& ws) const {
  run_with(data, ws, true);
}

void FftPlan::forward_inplace64(std::span<cf64> data) const {
  LSCATTER_EXPECT(data.size() == n_, "buffer length must match the plan size");
  if (impl_->m != 0) {
    Workspace& ws = thread_workspace();
    ws.reserve(0, impl_->m);
    impl_->bluestein(data, std::span<cf64>(ws.u_.data(), impl_->m));
    return;
  }
  bit_reverse(data.data(), n_, impl_->bitrev.data());
  radix2(data.data(), n_, impl_->twiddle.data(), false);
}

void FftPlan::inverse_inplace64(std::span<cf64> data) const {
  LSCATTER_EXPECT(data.size() == n_, "buffer length must match the plan size");
  const double inv_n = 1.0 / static_cast<double>(n_);
  if (impl_->m != 0) {
    // The conjugate identity, exactly as run_with applies it.
    for (cf64& v : data) v = cf64{v.real(), -v.imag()};
    forward_inplace64(data);
    for (cf64& v : data) v = cf64{v.real() * inv_n, -v.imag() * inv_n};
    return;
  }
  bit_reverse(data.data(), n_, impl_->bitrev.data());
  radix2(data.data(), n_, impl_->twiddle.data(), true);
  for (cf64& v : data) v *= inv_n;
}

// ---- plan cache ---------------------------------------------------------

namespace {

// Read-mostly plan cache behind a reader-writer capability: the steady
// state is concurrent shared-mode lookups; the first request for a new
// size upgrades to exclusive by RELEASING the shared lock and
// re-acquiring exclusive (never while still holding shared — an in-place
// upgrade attempt is the textbook reader/reader deadlock, which the
// clang thread-safety lane rejects at compile time). The double-checked find under the exclusive lock covers the window between
// the two acquisitions. Plans are immutable once constructed and never
// destroyed, so references returned from under the lock stay valid.
struct PlanCache {
  lscatter::SharedMutex mutex;
  std::unordered_map<std::size_t, std::unique_ptr<FftPlan>> plans
      LSCATTER_GUARDED_BY(mutex);
};

PlanCache& plan_cache() {
  static PlanCache* const cache = new PlanCache();  // never destroyed:
  // fft() may be called from static destructors of client code.
  return *cache;
}

}  // namespace

const FftPlan& cached_fft_plan(std::size_t n) {
  PlanCache& cache = plan_cache();
  {
    lscatter::SharedLockGuard lock(cache.mutex);
    const auto it = std::as_const(cache.plans).find(n);
    if (it != std::as_const(cache.plans).cend()) {
      g_plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
      return *it->second;
    }
  }
  lscatter::ExclusiveLockGuard lock(cache.mutex);
  auto it = cache.plans.find(n);
  if (it != cache.plans.end()) {
    // Another thread built it between our two lock acquisitions.
    g_plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
    return *it->second;
  }
  g_plan_cache_misses.fetch_add(1, std::memory_order_relaxed);
  it = cache.plans.emplace(n, std::make_unique<FftPlan>(n)).first;
  return *it->second;
}

FftRuntimeStats fft_runtime_stats() {
  FftRuntimeStats s;
  s.plan_cache_hits = g_plan_cache_hits.load(std::memory_order_relaxed);
  s.plan_cache_misses = g_plan_cache_misses.load(std::memory_order_relaxed);
  s.workspace_bytes = g_workspace_bytes.load(std::memory_order_relaxed);
  s.workspace_bytes_peak =
      g_workspace_bytes_peak.load(std::memory_order_relaxed);
  return s;
}

cvec fft(std::span<const cf32> in) {
  return cached_fft_plan(in.size()).forward(in);
}

cvec ifft(std::span<const cf32> in) {
  return cached_fft_plan(in.size()).inverse(in);
}

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

cvec fftshift(std::span<const cf32> in) {
  const std::size_t n = in.size();
  cvec out(n);
  const std::size_t half = (n + 1) / 2;
  for (std::size_t i = 0; i < n; ++i) out[i] = in[(i + half) % n];
  return out;
}

}  // namespace lscatter::dsp
