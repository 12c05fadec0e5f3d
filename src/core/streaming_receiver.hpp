#pragma once
// Streaming UE front end for LScatter.
//
// LscatterDemodulator works on one aligned packet at a time; real
// receivers see an unbroken sample stream in arbitrary chunk sizes. This
// wrapper buffers (rx, ambient) pairs, tracks the subframe phase, carves
// out whole packets as they complete, demodulates them, and emits packet
// events — the API a downstream SDR application would actually use:
//
//   core::StreamingReceiver ue(config);
//   while (sdr.read(chunk_rx, chunk_ambient)) {
//     for (const auto& ev : ue.feed(chunk_rx, chunk_ambient)) {
//       if (ev.result.payload) deliver(*ev.result.payload);
//     }
//   }
//
// The stream is assumed subframe-aligned at sample 0 (the UE's LTE sync
// — CellSearcher — provides that alignment; see tests).
//
// Hot-path memory discipline (DESIGN.md §15): feed() returns a span over
// an internal event buffer whose slots (including their payload vectors)
// are reused across calls, and demodulation runs through a persistent
// DemodWorkspace — after a warmup of a few packets the steady-state feed
// path performs zero heap allocations. The returned span is valid until
// the next feed() call.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/lscatter_rx.hpp"
#include "core/thread_safety.hpp"
#include "lte/ue_sync.hpp"

namespace lscatter::core {

class StreamingReceiver {
 public:
  struct Config {
    lte::CellConfig cell;
    tag::TagScheduleConfig schedule;
    OffsetSearch search;

    /// Subframe index of the first sample fed (frame phase from LTE
    /// sync). Ignored when acquire_alignment is set.
    std::size_t first_subframe_index = 0;

    /// When true, the receiver does NOT assume the stream is
    /// subframe-aligned: it buffers samples and runs the PSS/SSS cell
    /// search (narrow-band PSS correlation, see lte::CellSearcher) until
    /// a frame boundary is found, drops everything before that boundary,
    /// and only then starts carving packets. The first carved subframe
    /// is subframe 0 of the acquired frame. A search runs once one frame
    /// plus one FFT size is buffered; after a failed one the receiver
    /// keeps the latest frame and searches again once half a frame (one
    /// PSS period) of new samples has arrived.
    bool acquire_alignment = false;

    /// Minimum normalized PSS metric to accept alignment (the search's
    /// 1.92 MS/s narrow-band metric, ~0.8-1.0 without noise at every
    /// bandwidth).
    float acquire_min_metric = 0.5f;
  };

  struct PacketEvent {
    std::size_t first_subframe_index = 0;  // packet's first subframe
    PacketDemodResult result;
  };

  explicit StreamingReceiver(const Config& config);

  /// Feed the next chunk of the aligned streams (any length, including
  /// zero; rx and ambient must be the same length — mismatched calls are
  /// truncated to the common prefix and counted). Returns the packets
  /// completed within this chunk, in order. The span points into an
  /// internal buffer reused by the next feed() call — copy events that
  /// must outlive it.
  std::span<const PacketEvent> feed(std::span<const dsp::cf32> rx,
                                    std::span<const dsp::cf32> ambient);

  /// Declare a hole in the stream (e.g. the ingestion ring dropped
  /// chunks under backpressure): `gap_samples` samples that will never
  /// arrive. Buffered samples before the gap are discarded — they can no
  /// longer complete a packet. In aligned mode the receiver advances the
  /// stream phase deterministically and resumes carving at the next
  /// packet boundary; in acquire_alignment mode it goes back to a cold
  /// PSS reacquisition (a real gap invalidates the frame timing).
  void notify_gap(std::uint64_t gap_samples);

  /// Samples currently buffered (always < one packet's worth after
  /// feed() returns).
  std::size_t buffered_samples() const {
    return rx_buffer_.size() - consumed_;
  }

  /// Highest buffered_samples() ever observed (just after an insert,
  /// before packet extraction) — the receiver's memory footprint
  /// requirement. Also exported as `core.stream.buffered_hwm_samples`.
  std::size_t buffered_samples_high_water() const { return buffered_hwm_; }

  std::size_t packets_demodulated() const { return packets_; }
  std::size_t next_subframe_index() const { return next_subframe_; }

  /// Absolute stream position (samples) of the next sample to be fed —
  /// advances through both feed() and notify_gap().
  std::uint64_t stream_position() const { return stream_pos_; }

  /// Gaps declared via notify_gap() so far.
  std::uint64_t gaps_notified() const { return gaps_; }

  /// False only while acquire_alignment is set and no frame boundary has
  /// been found yet (or a gap forced reacquisition).
  bool aligned() const { return aligned_; }

 private:
  /// Attempt PSS/SSS acquisition on the buffered stream. Returns true
  /// once the stream is aligned (consumed_ advanced to the frame start).
  bool try_acquire();

  Config config_;
  LscatterDemodulator demodulator_;
  std::optional<lte::CellSearcher> searcher_;
  /// Buffered samples at which try_acquire() next searches.
  std::size_t search_at_;
  bool aligned_ = true;
  std::size_t samples_per_packet_;
  std::size_t next_subframe_;
  std::size_t packets_ = 0;
  std::size_t consumed_ = 0;  // read offset into the buffers
  std::size_t buffered_hwm_ = 0;
  std::uint64_t stream_pos_ = 0;
  std::uint64_t gaps_ = 0;
  /// Samples still to discard after a gap before carving resumes (the
  /// distance to the next packet boundary in aligned mode).
  std::uint64_t skip_ = 0;
  dsp::cvec rx_buffer_;
  dsp::cvec ambient_buffer_;
  /// Reused demod scratch + event slots (grow-only; inner vectors keep
  /// their capacity across feeds).
  DemodWorkspace ws_;
  std::vector<PacketEvent> events_;
  /// Parking lot for the payload vectors of CRC-failed slots: resetting
  /// the optional would free the vector's capacity and force a fresh
  /// allocation on the next clean packet, so the buffer is moved here
  /// first and moved back on the next crc_ok (one spare per event slot).
  std::vector<std::vector<std::uint8_t>> payload_spares_;
  // Single-owner contract: the receiver holds unguarded stream state, so
  // all feed() calls must come from one thread (whichever calls first).
  SingleOwner owner_;
};

}  // namespace lscatter::core
