#pragma once
// UE-side backscatter demodulator (paper §3.3).
//
// For every modulated symbol of a packet the receiver forms the products
// z_n = r_n conj(x_n) over the useful window (x_n: known ambient
// baseband), finds the modulation offset from the preamble symbol
// (modulation_offset.*), eliminates the phase offset per symbol from the
// filler units (phase_offset.*), and slices each unit's BPSK phase. The
// collected bits are de-whitened and CRC-checked by the PacketCodec.

#include <optional>
#include <utility>

#include "core/framing.hpp"
#include "core/modulation_offset.hpp"
#include "dsp/fft.hpp"
#include "lte/ofdm.hpp"
#include "tag/tag_controller.hpp"

namespace lscatter::core {

struct PacketDemodResult {
  bool preamble_found = false;
  std::ptrdiff_t offset_units = 0;
  float preamble_metric = 0.0f;
  std::vector<std::uint8_t> coded_bits;  // on-air bits (still whitened)
  std::vector<float> soft_bits;          // per-unit metric, + = bit 1
  std::optional<std::vector<std::uint8_t>> payload;  // CRC-clean payload
};

/// Reusable scratch for demodulate_packet_into(). All buffers grow to
/// their steady-state size on the first few packets and are then reused,
/// so the streaming hot path performs zero heap allocations (DESIGN.md
/// §15). One workspace per decoding thread; never shared concurrently.
struct DemodWorkspace {
  dsp::cvec z;                        // symbol-product scratch (K samples)
  std::vector<std::uint8_t> coded;    // on-air bits of the current packet
  std::vector<float> soft;            // per-unit soft metrics
  std::vector<std::uint8_t> payload;  // CRC-clean payload (crc_ok only)
  std::vector<std::uint8_t> crc_scratch;
  /// Codecs cached per on-air size (listening slots change packet
  /// capacity, so a stream sees a small set of sizes — each is built
  /// once, during warmup).
  std::vector<std::pair<std::size_t, PacketCodec>> codecs;
};

/// Result of the allocation-free demod path; the bit/payload buffers
/// live in the DemodWorkspace that produced it.
struct PacketDemodStatus {
  bool preamble_found = false;
  bool crc_ok = false;
  std::ptrdiff_t offset_units = 0;
  float preamble_metric = 0.0f;
};

class LscatterDemodulator {
 public:
  LscatterDemodulator(const lte::CellConfig& cell,
                      const tag::TagScheduleConfig& schedule,
                      const OffsetSearch& search = {},
                      Fec fec = Fec::kNone);

  /// Demodulate one packet. `rx` and `ambient` are aligned sample spans
  /// that begin at the boundary of the packet's first subframe and cover
  /// packet_subframes() full subframes. `first_subframe_index` is that
  /// subframe's running index (for the PSS/SSS avoidance schedule).
  PacketDemodResult demodulate_packet(std::span<const dsp::cf32> rx,
                                      std::span<const dsp::cf32> ambient,
                                      std::size_t first_subframe_index) const;

  /// Allocation-free variant for the streaming pipeline: identical
  /// decode (bit-for-bit) but all intermediates live in `ws`. On return
  /// ws.coded/ws.soft hold the sliced bits and, when the status reports
  /// crc_ok, ws.payload holds the CRC-clean payload. With the default
  /// Fec::kNone and equalizer_taps == 0 this path performs no heap
  /// allocation once ws is warm.
  PacketDemodStatus demodulate_packet_into(
      std::span<const dsp::cf32> rx, std::span<const dsp::cf32> ambient,
      std::size_t first_subframe_index, DemodWorkspace& ws) const;

  const tag::TagController& controller() const { return controller_; }
  const OffsetSearch& search() const { return search_; }

 private:
  /// z products over the useful window of subframe symbol `l`, written
  /// into `z_out` (resized to the FFT size, reused across calls); when
  /// `h` is non-empty the window is channel-equalized first.
  void symbol_products_into(std::span<const dsp::cf32> rx,
                            std::span<const dsp::cf32> ambient,
                            std::size_t subframe_offset_samples,
                            std::size_t l, dsp::cvec& z_out,
                            std::span<const dsp::cf64> h = {}) const;

  /// Slice the symbol's info bits (and their soft metrics) given offset
  /// and gain; repetition units are soft-combined.
  void slice_symbol(std::span<const dsp::cf32> z,
                    std::ptrdiff_t offset_units, dsp::cf32 gain,
                    std::vector<std::uint8_t>& bits,
                    std::vector<float>& soft) const;

  /// Per-symbol gain re-estimate from units outside the (shifted)
  /// modulation window; falls back to `fallback` if too little energy or
  /// a non-finite sum.
  dsp::cf32 estimate_symbol_gain(std::span<const dsp::cf32> z,
                                 std::ptrdiff_t offset_units,
                                 dsp::cf32 fallback) const;

  /// Least-squares FIR estimate of the backscatter channel from a symbol
  /// whose full unit pattern is known (the preamble at offset d).
  std::vector<dsp::cf64> estimate_channel_fir(
      std::span<const dsp::cf32> rx, std::span<const dsp::cf32> ambient,
      std::size_t subframe_offset_samples, std::size_t l,
      std::ptrdiff_t offset_units) const;

  /// Divide the channel out of one useful window in the frequency domain.
  dsp::cvec equalize_window(std::span<const dsp::cf32> rx_window,
                            std::span<const dsp::cf64> h) const;

  lte::CellConfig cell_;
  tag::TagController controller_;
  OffsetSearch search_;
  Fec fec_;
  /// Shared process-wide plan (dsp::cached_fft_plan): multi-cell
  /// receivers on the same numerology reuse one set of twiddles behind
  /// the cache's shared_mutex read path instead of building one each.
  const dsp::FftPlan* plan_;
};

}  // namespace lscatter::core
