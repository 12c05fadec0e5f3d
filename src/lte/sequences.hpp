#pragma once
// Deterministic sequences from TS 36.211: Zadoff-Chu (PSS), the SSS
// m-sequence construction, and the length-31 Gold pseudo-random generator
// behind the cell-specific reference signals.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsp/types.hpp"
#include "lte/cell_config.hpp"

namespace lscatter::lte {

/// Zadoff-Chu sequence of length `n` with root `u` (gcd(u, n) == 1):
///   zc[k] = exp(-j pi u k (k+1) / n)        (odd n)
/// Constant amplitude, zero cyclic autocorrelation.
dsp::cvec zadoff_chu(std::uint32_t root, std::size_t n);  // lint-ok: into — sequences are generated once and cached by callers

/// PSS frequency-domain sequence d_u(n), n = 0..61 (TS 36.211 §6.11.1.1).
/// N_ID2 in {0,1,2} selects root u in {25, 29, 34}. The length-63 ZC is
/// punctured at its middle element (which would land on DC).
std::array<dsp::cf32, kSyncSubcarriers> pss_sequence(std::uint8_t n_id_2);

/// SSS frequency-domain sequence d(0..61) (TS 36.211 §6.11.2.1).
/// Differs between subframe 0 and subframe 5 — that difference is what
/// lets a UE find the frame boundary.
std::array<dsp::cf32, kSyncSubcarriers> sss_sequence(std::uint16_t n_id_1,
                                                     std::uint8_t n_id_2,
                                                     bool subframe5);

/// Length-31 Gold sequence c(n) (TS 36.211 §7.2), n = 0..len-1, for the
/// given c_init. Returned one bit per byte. Both shift registers advance
/// 28 bits per step (their taps reach at most 3 ahead).
std::vector<std::uint8_t> gold_sequence(std::uint32_t c_init,
                                        std::size_t len);

inline constexpr std::size_t kMaxRb = 110;  // N_RB^max,DL

/// Cell-specific reference-signal symbol values r_{l,ns}(m) for antenna
/// port 0 (TS 36.211 §6.10.1.1): QPSK from the Gold sequence with
///   c_init = 2^10 (7(ns+1) + l + 1)(2 N_cell + 1) + 2 N_cell + 1
/// (normal CP). `ns` is the slot number 0..19, `l` the symbol in the slot.
/// The master set holds 2*kMaxRb values; the cell maps a centered window
/// of them. Writes values m = first .. first + out.size() - 1 into `out`
/// without allocating; the Gold generator skips straight to value
/// `first`. Requires first + out.size() <= 2*kMaxRb.
void crs_values_into(std::uint16_t cell_id, std::size_t ns, std::size_t l,
                     std::size_t first, std::span<dsp::cf32> out);

}  // namespace lscatter::lte
