#include "core/streaming_receiver.hpp"

#include <algorithm>
#include <cassert>

#include "obs/obs.hpp"
#if LSCATTER_OBS_ENABLED
#include "obs/family.hpp"
#include "obs/span.hpp"
#endif

namespace lscatter::core {

namespace {

/// Append a chunk, growing capacity geometrically: libstdc++'s range
/// insert grows to exactly size + n when n > size, so every new record of
/// buffered + chunk would otherwise reallocate the buffer.
void append(dsp::cvec& buffer, std::span<const dsp::cf32> chunk) {
  const std::size_t need = buffer.size() + chunk.size();
  if (need > buffer.capacity()) {
    buffer.reserve(std::max(need, 2 * buffer.capacity()));
  }
  buffer.insert(buffer.end(), chunk.begin(), chunk.end());
}

}  // namespace

#if LSCATTER_OBS_ENABLED
namespace {

// Per-stage latency breakdown as one labeled histogram family
// (DESIGN.md §12): core.stream.stage.seconds{stage=acquire|demod|feed}.
// Cells are resolved once at first use and cached — the feed loop below
// must never take the family mutex per packet (lscatter-lint obs-loop).
obs::Histogram& stream_stage_cell(const char* stage) {
  static obs::HistogramFamily family("core.stream.stage.seconds", "stage");
  return family.cell(std::string_view(stage));
}

}  // namespace
#endif

StreamingReceiver::StreamingReceiver(const Config& config)
    : config_(config),
      demodulator_(config.cell, config.schedule, config.search),
      samples_per_packet_(config.schedule.packet_subframes *
                          config.cell.samples_per_subframe()),
      next_subframe_(config.first_subframe_index) {
  // Buffered samples stay below one packet between feeds, so two packets
  // hold any chunk up to a packet long without growing.
  rx_buffer_.reserve(2 * samples_per_packet_);
  ambient_buffer_.reserve(2 * samples_per_packet_);
  if (config_.acquire_alignment) {
    aligned_ = false;
    searcher_.emplace(config_.cell);
  }
}

bool StreamingReceiver::try_acquire() {
#if LSCATTER_OBS_ENABLED
  static obs::Histogram& acquire_latency = stream_stage_cell("acquire");
  obs::ScopedTimer stage_timer(acquire_latency);
#endif
  const std::size_t frame_len = config_.cell.samples_per_frame();
  if (buffered_samples() < frame_len + config_.cell.fft_size()) {
    return false;
  }

  const std::span<const dsp::cf32> window(rx_buffer_.data() + consumed_,
                                          buffered_samples());
  const auto res = searcher_->search(window, config_.acquire_min_metric);
  if (res) {
    // frame_start is modulo one frame relative to the window start; drop
    // everything before it so the next carved sample is subframe 0.
    consumed_ += res->frame_start;
    next_subframe_ = 0;
    aligned_ = true;
    LSCATTER_OBS_COUNTER_INC("core.stream.acquired");
    return true;
  }

  // No PSS in this window. Keep only the most recent frame so the buffer
  // stays bounded while we wait for a stronger signal.
  LSCATTER_OBS_COUNTER_INC("core.stream.acquire_failed");
  if (buffered_samples() > frame_len) {
    consumed_ += buffered_samples() - frame_len;
  }
  return false;
}

void StreamingReceiver::notify_gap(std::uint64_t gap_samples) {
  if (gap_samples == 0) return;
  ++gaps_;
  LSCATTER_OBS_COUNTER_INC("core.stream.gaps");
  LSCATTER_OBS_COUNTER_ADD("core.stream.gap_samples", gap_samples);
  // Buffered pre-gap samples can no longer complete a packet: the
  // continuation they were waiting for is the hole. clear() keeps the
  // vectors' capacity, so this path stays allocation-free.
  rx_buffer_.clear();
  ambient_buffer_.clear();
  consumed_ = 0;
  stream_pos_ += gap_samples;

  if (config_.acquire_alignment) {
    // Real SDR timing is lost with the samples — go back to cold PSS
    // reacquisition from the post-gap stream.
    aligned_ = false;
    skip_ = 0;
    return;
  }

  // Aligned mode: the stream's frame phase is positional (sample 0 =
  // start of first_subframe_index), so advance deterministically to the
  // next packet boundary after the gap and resume carving there.
  const std::uint64_t spp = samples_per_packet_;
  skip_ = (spp - stream_pos_ % spp) % spp;
  const std::uint64_t sps = config_.cell.samples_per_subframe();
  next_subframe_ =
      config_.first_subframe_index +
      static_cast<std::size_t>((stream_pos_ + skip_) / sps);
}

std::span<const StreamingReceiver::PacketEvent> StreamingReceiver::feed(
    std::span<const dsp::cf32> rx, std::span<const dsp::cf32> ambient) {
#if LSCATTER_OBS_ENABLED
  static obs::Histogram& feed_latency = stream_stage_cell("feed");
  static obs::Histogram& demod_latency = stream_stage_cell("demod");
  obs::ScopedTimer stage_timer(feed_latency);
#endif
  owner_.check(
      "StreamingReceiver::feed called from a second thread; the receiver "
      "is single-owner (wrap it in a lock or use one receiver per stream)");
  LSCATTER_OBS_COUNTER_INC("core.stream.feeds");
  assert(rx.size() == ambient.size());
  // Release builds tolerate a mismatched call by truncating to the
  // common prefix: losing the tail of one chunk beats silently carving
  // packets out of misaligned (rx, ambient) pairs.
  const std::size_t n = std::min(rx.size(), ambient.size());
  if (rx.size() != ambient.size()) {
    LSCATTER_OBS_COUNTER_INC("core.stream.length_mismatch");
  }
  if (n == 0) {
    LSCATTER_OBS_COUNTER_INC("core.stream.empty_feeds");
  }
  stream_pos_ += n;

  // Post-gap phase restore: discard up to the next packet boundary.
  std::size_t off = 0;
  if (skip_ > 0) {
    off = static_cast<std::size_t>(
        std::min<std::uint64_t>(skip_, static_cast<std::uint64_t>(n)));
    skip_ -= off;
  }
  append(rx_buffer_, rx.subspan(off, n - off));
  append(ambient_buffer_, ambient.subspan(off, n - off));

  buffered_hwm_ = std::max(buffered_hwm_, buffered_samples());
  LSCATTER_OBS_GAUGE_MAX("core.stream.buffered_hwm_samples",
                         buffered_hwm_);

  // Event slots are reused across feeds (grow-only; never clear(), which
  // would free the inner payload vectors) — steady state allocates
  // nothing.
  std::size_t events_used = 0;
  // Fall through to the compaction below even when unaligned: a failed
  // acquisition may have consumed (trimmed) old samples.
  const bool ready = skip_ == 0 && (aligned_ || try_acquire());
  while (ready && buffered_samples() >= samples_per_packet_) {
    const std::span<const dsp::cf32> prx(rx_buffer_.data() + consumed_,
                                         samples_per_packet_);
    const std::span<const dsp::cf32> pam(
        ambient_buffer_.data() + consumed_, samples_per_packet_);

    // Listening / empty slots produce no packet but still consume time.
    const std::size_t capacity =
        demodulator_.controller().packet_raw_bits(next_subframe_);
    if (capacity > 32) {
      if (events_used == events_.size()) {
        events_.emplace_back();
        payload_spares_.emplace_back();
      }
      PacketEvent& ev = events_[events_used];
      std::vector<std::uint8_t>& spare = payload_spares_[events_used];
      ++events_used;
      ev.first_subframe_index = next_subframe_;
      PacketDemodStatus status;
      {
#if LSCATTER_OBS_ENABLED
        obs::ScopedTimer demod_timer(demod_latency);
#endif
        status = demodulator_.demodulate_packet_into(prx, pam,
                                                     next_subframe_, ws_);
      }
      ev.result.preamble_found = status.preamble_found;
      ev.result.offset_units = status.offset_units;
      ev.result.preamble_metric = status.preamble_metric;
      ev.result.coded_bits.assign(ws_.coded.begin(), ws_.coded.end());
      ev.result.soft_bits.assign(ws_.soft.begin(), ws_.soft.end());
      if (status.crc_ok) {
        // Re-engage the optional with the slot's parked buffer so its
        // capacity survives crc-fail gaps between clean packets.
        if (!ev.result.payload) {
          ev.result.payload.emplace(std::move(spare));
        }
        ev.result.payload->assign(ws_.payload.begin(), ws_.payload.end());
      } else {
        if (ev.result.payload) spare = std::move(*ev.result.payload);
        ev.result.payload.reset();
      }
      ++packets_;
      LSCATTER_OBS_COUNTER_INC("core.stream.packets");
    } else {
      LSCATTER_OBS_COUNTER_INC("core.stream.idle_slots");
    }

    consumed_ += samples_per_packet_;
    next_subframe_ += config_.schedule.packet_subframes;
  }

  // Compact lazily: dropping the consumed prefix once per drained packet
  // batch keeps feed() amortized O(chunk) even for 1-sample feeds (the
  // old erase-per-packet front-trim was O(buffer) per packet).
  if (consumed_ > 0 && consumed_ >= buffered_samples()) {
    rx_buffer_.erase(rx_buffer_.begin(),
                     rx_buffer_.begin() +
                         static_cast<std::ptrdiff_t>(consumed_));
    ambient_buffer_.erase(
        ambient_buffer_.begin(),
        ambient_buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return std::span<const PacketEvent>(events_.data(), events_used);
}

}  // namespace lscatter::core
