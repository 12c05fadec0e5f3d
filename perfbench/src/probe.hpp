#pragma once
// Traced-run probes for the two demod stages that run inside feed() and
// LinkSimulator::run, where the benchmark cannot put a span: the Eq. 7
// offset search and the CRC check. Each probe re-runs the stage's public
// call on one packet's own inputs, outside the timed loop, and returns the
// verdict so the caller can cross-check it against the packet event.

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/framing.hpp"
#include "core/modulation_offset.hpp"
#include "dsp/simd.hpp"
#include "lte/ofdm.hpp"
#include "tag/tag_controller.hpp"
#include "tracer.hpp"

namespace perfbench {

class PacketProbe {
 public:
  PacketProbe(const lscatter::lte::CellConfig& cell,
              const lscatter::tag::TagScheduleConfig& schedule,
              const lscatter::core::OffsetSearch& search)
      : cell_(cell), controller_(cell, schedule), search_(search) {}

  /// Time find_modulation_offset on the preamble symbol of the packet
  /// whose first subframe starts at rx[0] / ambient[0]. The products
  /// z_n = r_n conj(x_n) cover that symbol's useful window, located with
  /// the public symbol-offset helpers (one preamble symbol per packet).
  std::optional<lscatter::core::OffsetResult> offset_search(
      std::span<const lscatter::dsp::cf32> rx,
      std::span<const lscatter::dsp::cf32> ambient,
      std::size_t subframe_index, Tracer& tracer) {
    std::size_t l = 0;
    while (!controller_.symbol_modulatable(subframe_index, l)) ++l;
    const std::size_t k = cell_.fft_size();
    const std::size_t useful =
        lscatter::lte::symbol_offset_in_subframe(cell_, l) +
        cell_.cp_length(l % lscatter::lte::kSymbolsPerSlot);
    z_.resize(k);
    lscatter::dsp::simd_kernels().conj_mul(
        rx.data() + useful, ambient.data() + useful, z_.data(), k);
    const auto t0 = Clock::now();
    auto found = lscatter::core::find_modulation_offset(
        z_, controller_.preamble_pattern(),
        controller_.modulation_start_unit(), search_);
    tracer.record("core.demod.offset_search", t0, Clock::now());
    return found;
  }

  /// Time PacketCodec::decode_hard_into on a packet's sliced bits; true
  /// when the CRC passes.
  bool crc(std::span<const std::uint8_t> coded, Tracer& tracer) {
    const lscatter::core::PacketCodec* codec = nullptr;
    for (const auto& [size, c] : codecs_) {
      if (size == coded.size()) codec = &c;
    }
    if (codec == nullptr) {
      codecs_.emplace_back(coded.size(),
                           lscatter::core::PacketCodec(coded.size()));
      codec = &codecs_.back().second;
    }
    const auto t0 = Clock::now();
    const bool ok = codec->decode_hard_into(coded, scratch_, payload_);
    tracer.record("core.demod.crc", t0, Clock::now());
    return ok;
  }

 private:
  lscatter::lte::CellConfig cell_;
  lscatter::tag::TagController controller_;
  lscatter::core::OffsetSearch search_;
  lscatter::dsp::cvec z_;
  std::vector<std::pair<std::size_t, lscatter::core::PacketCodec>> codecs_;
  std::vector<std::uint8_t> scratch_;
  std::vector<std::uint8_t> payload_;
};

}  // namespace perfbench
