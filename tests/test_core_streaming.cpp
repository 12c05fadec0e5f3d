// Streaming receiver: packet extraction from a continuous stream fed in
// awkward chunk sizes.

#include <gtest/gtest.h>

#include "core/streaming_receiver.hpp"
#include "lte/enodeb.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "tag/modulator.hpp"
#include "tag/tag_controller.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;
using dsp::cvec;

struct Stream {
  cvec rx;
  cvec ambient;
  std::vector<std::vector<std::uint8_t>> payloads;  // per data subframe
};

// Build `n_subframes` of tag traffic starting at subframe 0.
Stream make_stream(const lte::CellConfig& cell,
                   const tag::TagScheduleConfig& sched,
                   std::size_t n_subframes, std::uint64_t seed) {
  lte::Enodeb::Config ecfg;
  ecfg.cell = cell;
  ecfg.seed = seed;
  lte::Enodeb enb(ecfg);
  tag::TagController ctl(cell, sched);
  dsp::Rng prng(seed + 1);

  Stream s;
  for (std::size_t sf = 0; sf < n_subframes; ++sf) {
    const auto tx = enb.next_subframe();
    const std::size_t cap = ctl.packet_raw_bits(sf);
    tag::SubframePlan plan;
    if (!ctl.is_listening_subframe(sf) && cap > 32) {
      const core::PacketCodec codec(cap);
      auto payload = prng.bits(codec.payload_bits());
      const auto chunks =
          core::split_bits(codec.encode(payload), ctl.bits_per_symbol());
      plan = ctl.plan_subframe(sf, true, chunks);
      s.payloads.push_back(std::move(payload));
    } else {
      plan = ctl.plan_subframe(sf, false, {});
    }
    const auto pattern = tag::expand_to_units(cell, plan);
    const auto scat =
        tag::apply_pattern(tx.samples, pattern, 7, cf32{1e-3f, 4e-4f});
    s.rx.insert(s.rx.end(), scat.begin(), scat.end());
    s.ambient.insert(s.ambient.end(), tx.samples.begin(),
                     tx.samples.end());
  }
  return s;
}

TEST(StreamingReceiver, RecoversEveryPacketRegardlessOfChunking) {
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz5;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 12, 99);

  for (const std::size_t chunk : {1u, 777u, 7680u, 50000u}) {
    core::StreamingReceiver::Config cfg;
    cfg.cell = cell;
    cfg.schedule = sched;
    core::StreamingReceiver ue(cfg);

    std::vector<core::StreamingReceiver::PacketEvent> events;
    std::size_t pos = 0;
    while (pos < s.rx.size()) {
      const std::size_t n = std::min<std::size_t>(chunk, s.rx.size() - pos);
      auto out = ue.feed(
          std::span<const cf32>(s.rx).subspan(pos, n),
          std::span<const cf32>(s.ambient).subspan(pos, n));
      for (auto& e : out) events.push_back(std::move(e));
      pos += n;
    }
    // 12 subframes: subframes 9 is listening -> 11 packets.
    ASSERT_EQ(events.size(), s.payloads.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_TRUE(events[i].result.preamble_found);
      ASSERT_TRUE(events[i].result.payload.has_value());
      EXPECT_EQ(*events[i].result.payload, s.payloads[i]);
    }
    EXPECT_LT(ue.buffered_samples(), cell.samples_per_subframe());
  }
}

TEST(StreamingReceiver, TracksSubframePhaseAcrossListeningSlots) {
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 21, 7);

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  core::StreamingReceiver ue(cfg);
  const auto events = ue.feed(s.rx, s.ambient);
  // Subframes 9 and 19 are listening: 19 packets from 21 subframes.
  EXPECT_EQ(events.size(), 19u);
  EXPECT_EQ(ue.next_subframe_index(), 21u);
  // Event subframe indices skip the listening slots.
  for (const auto& e : events) {
    EXPECT_NE(e.first_subframe_index % 10, 9u);
  }
}

TEST(StreamingReceiver, HonorsNonZeroStartingSubframe) {
  // A receiver that joins the stream mid-frame (its LTE sync says the
  // first fed sample is subframe 7) must schedule listening slots and
  // sync-subframe capacities accordingly.
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  tag::TagScheduleConfig sched;

  // Build subframes 7..12 (subframe 9 is a listening slot, 10 is sync).
  lte::Enodeb::Config ecfg;
  ecfg.cell = cell;
  ecfg.seed = 21;
  lte::Enodeb enb(ecfg);
  tag::TagController ctl(cell, sched);
  dsp::Rng prng(22);
  cvec rx_s;
  cvec am_s;
  std::size_t expected_packets = 0;
  for (std::size_t sf = 7; sf < 13; ++sf) {
    const auto tx = enb.make_subframe(sf);
    const std::size_t cap = ctl.packet_raw_bits(sf);
    tag::SubframePlan plan;
    if (!ctl.is_listening_subframe(sf) && cap > 32) {
      const core::PacketCodec codec(cap);
      plan = ctl.plan_subframe(
          sf, true,
          core::split_bits(codec.encode(prng.bits(codec.payload_bits())),
                           ctl.bits_per_symbol()));
      ++expected_packets;
    } else {
      plan = ctl.plan_subframe(sf, false, {});
    }
    const auto pattern = tag::expand_to_units(cell, plan);
    const auto scat =
        tag::apply_pattern(tx.samples, pattern, 0, cf32{1e-3f, 0.0f});
    rx_s.insert(rx_s.end(), scat.begin(), scat.end());
    am_s.insert(am_s.end(), tx.samples.begin(), tx.samples.end());
  }

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  cfg.first_subframe_index = 7;
  core::StreamingReceiver ue(cfg);
  const auto events = ue.feed(rx_s, am_s);
  EXPECT_EQ(events.size(), expected_packets);  // 5 of 6 (sf 9 listens)
  EXPECT_EQ(ue.next_subframe_index(), 13u);
  for (const auto& e : events) {
    EXPECT_TRUE(e.result.preamble_found) << e.first_subframe_index;
    EXPECT_TRUE(e.result.payload.has_value());
  }
}

class StreamingAcquire : public ::testing::TestWithParam<lte::Bandwidth> {};

TEST_P(StreamingAcquire, AcquiresAlignmentFromUnalignedStream) {
  // The stream joins mid-subframe (a receiver with no prior LTE sync).
  // With acquire_alignment set, the receiver runs the PSS/SSS cell
  // search on its buffer with the default acquire_min_metric, drops
  // everything before the found frame boundary, and then recovers
  // exactly the packets of the following frames. The geometry is the
  // same at every bandwidth in units of D = K/128 cell samples.
  lte::CellConfig cell;
  cell.bandwidth = GetParam();
  const std::size_t d = cell.fft_size() / 128;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 25, 123);

  // Cut 4321·D samples in (inside subframe 2): the first complete frame
  // in what the receiver sees starts at original subframe 10.
  const std::size_t cut = 4321 * d;
  const std::span<const cf32> rx =
      std::span<const cf32>(s.rx).subspan(cut);
  const std::span<const cf32> ambient =
      std::span<const cf32>(s.ambient).subspan(cut);

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  cfg.acquire_alignment = true;
  core::StreamingReceiver ue(cfg);
  EXPECT_FALSE(ue.aligned());

  // Feed in awkward chunks so acquisition happens mid-stream, not on a
  // single full-buffer call.
  std::vector<core::StreamingReceiver::PacketEvent> events;
  std::size_t pos = 0;
  while (pos < rx.size()) {
    const std::size_t n = std::min<std::size_t>(30000 * d, rx.size() - pos);
    auto out = ue.feed(rx.subspan(pos, n), ambient.subspan(pos, n));
    for (auto& e : out) events.push_back(std::move(e));
    pos += n;
  }
  ASSERT_TRUE(ue.aligned());

  // Subframes 10..24 remain after acquisition; 19 is a listening slot,
  // so 14 packets, which line up with payloads[9..22] (payload 9 is the
  // first data subframe at or after original subframe 10).
  ASSERT_EQ(events.size(), 14u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(events[i].result.preamble_found) << i;
    ASSERT_TRUE(events[i].result.payload.has_value()) << i;
    EXPECT_EQ(*events[i].result.payload, s.payloads[9 + i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, StreamingAcquire,
                         ::testing::ValuesIn(lte::kAllBandwidths));

#if LSCATTER_OBS_ENABLED
TEST(StreamingReceiver, AcquisitionSearchesOncePerHalfFrame) {
  // Noise only, fed one 20 MHz subframe at a time: the first search runs
  // once a frame plus one FFT size is buffered (feed 11), and each failed
  // search waits for half a frame of new samples — one PSS period —
  // before the next (feeds 16, 21, 26), not one search per feed.
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz20;
  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.acquire_alignment = true;
  core::StreamingReceiver ue(cfg);

  const std::size_t sps = cell.samples_per_subframe();
  dsp::Rng rng(11);
  cvec noise(3 * cell.samples_per_frame());
  for (auto& v : noise) v = rng.complex_normal(0.01);
  auto& registry = obs::Registry::instance();
  const std::uint64_t before = registry.counter_value("lte.cellsearch.searches");
  for (std::size_t sf = 0; sf < 30; ++sf) {
    const auto chunk = std::span<const cf32>(noise).subspan(sf * sps, sps);
    EXPECT_TRUE(ue.feed(chunk, chunk).empty());
    EXPECT_LE(ue.buffered_samples(),
              cell.samples_per_frame() + cell.samples_per_frame() / 2);
  }
  EXPECT_FALSE(ue.aligned());
  EXPECT_EQ(registry.counter_value("lte.cellsearch.searches") - before, 4u);
}
#endif

TEST(StreamingReceiver, AcquisitionKeepsBufferBoundedWithoutPss) {
  // Noise only: acquisition never succeeds, and the buffer must stay
  // bounded (the receiver keeps at most one frame while waiting).
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.acquire_alignment = true;
  core::StreamingReceiver ue(cfg);

  dsp::Rng rng(7);
  cvec noise(cell.samples_per_frame() * 3);
  for (auto& v : noise) v = rng.complex_normal(0.01);
  for (int rep = 0; rep < 3; ++rep) {
    const auto events = ue.feed(noise, noise);
    EXPECT_TRUE(events.empty());
  }
  EXPECT_FALSE(ue.aligned());
  EXPECT_LE(ue.buffered_samples(),
            cell.samples_per_frame() + cell.samples_per_subframe());
}

TEST(StreamingReceiver, EmptyFeedIsANoOp) {
  core::StreamingReceiver::Config cfg;
  cfg.cell.bandwidth = lte::Bandwidth::kMHz1_4;
  core::StreamingReceiver ue(cfg);
  EXPECT_TRUE(ue.feed({}, {}).empty());
  EXPECT_EQ(ue.buffered_samples(), 0u);
  EXPECT_EQ(ue.packets_demodulated(), 0u);
}

TEST(StreamingReceiver, ZeroLengthFeedsInterleavedWithOneSampleChunks) {
  // Degenerate SDR read pattern: every real sample is book-ended by
  // zero-length reads. Packet extraction and subframe phase must match a
  // single bulk feed, including across the packet boundary where the
  // buffer drains. Same cell/seed as the chunking sweep above, which
  // decodes cleanly in every build configuration.
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz5;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 3, 99);

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  core::StreamingReceiver ue(cfg);

  std::vector<core::StreamingReceiver::PacketEvent> events;
  for (std::size_t pos = 0; pos < s.rx.size(); ++pos) {
    EXPECT_TRUE(ue.feed({}, {}).empty());
    auto out = ue.feed(std::span<const cf32>(s.rx).subspan(pos, 1),
                       std::span<const cf32>(s.ambient).subspan(pos, 1));
    for (auto& e : out) events.push_back(std::move(e));
    EXPECT_TRUE(ue.feed({}, {}).empty());
  }

  ASSERT_EQ(events.size(), s.payloads.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(events[i].result.preamble_found);
    ASSERT_TRUE(events[i].result.payload.has_value());
    EXPECT_EQ(*events[i].result.payload, s.payloads[i]);
  }
  EXPECT_EQ(ue.next_subframe_index(), 3u);
  EXPECT_EQ(ue.buffered_samples(), 0u);
}

TEST(StreamingReceiver, BufferedHighWaterMarkTracksWorstBacklog) {
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 4, 43);
  const std::size_t per_packet =
      sched.packet_subframes * cell.samples_per_subframe();

  // Sample-at-a-time feeding: the buffer never holds more than one
  // packet's worth (it drains the instant a packet completes).
  {
    core::StreamingReceiver::Config cfg;
    cfg.cell = cell;
    cfg.schedule = sched;
    core::StreamingReceiver ue(cfg);
    for (std::size_t pos = 0; pos < s.rx.size(); ++pos) {
      ue.feed(std::span<const cf32>(s.rx).subspan(pos, 1),
              std::span<const cf32>(s.ambient).subspan(pos, 1));
    }
    EXPECT_EQ(ue.buffered_samples_high_water(), per_packet);
  }

  // Bulk feeding: the whole stream is buffered before extraction, and
  // the mark survives the subsequent drain.
  {
    core::StreamingReceiver::Config cfg;
    cfg.cell = cell;
    cfg.schedule = sched;
    core::StreamingReceiver ue(cfg);
    ue.feed(s.rx, s.ambient);
    EXPECT_EQ(ue.buffered_samples_high_water(), s.rx.size());
    EXPECT_LT(ue.buffered_samples(), per_packet);
    EXPECT_EQ(ue.buffered_samples_high_water(), s.rx.size());
  }
}

TEST(StreamingReceiver, NotifyGapRestoresSubframePhase) {
  // An aligned receiver told about a whole-subframe hole must resume at
  // the correct absolute subframe index — listening-slot schedule and
  // sync-subframe capacities included.
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 20, 55);
  const std::size_t spsf = cell.samples_per_subframe();

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  core::StreamingReceiver ue(cfg);

  // Subframes 0..6, then a 5-subframe hole, then 12..19.
  std::vector<core::StreamingReceiver::PacketEvent> events;
  for (const auto& e :
       ue.feed(std::span<const cf32>(s.rx).subspan(0, 7 * spsf),
               std::span<const cf32>(s.ambient).subspan(0, 7 * spsf))) {
    events.push_back(e);
  }
  ue.notify_gap(5 * spsf);
  EXPECT_EQ(ue.gaps_notified(), 1u);
  for (const auto& e : ue.feed(
           std::span<const cf32>(s.rx).subspan(12 * spsf),
           std::span<const cf32>(s.ambient).subspan(12 * spsf))) {
    events.push_back(e);
  }
  EXPECT_EQ(ue.next_subframe_index(), 20u);

  // Data subframes 0..6 and 12..19, minus listening slots 9/19 (only 19
  // is inside the fed ranges).
  std::vector<std::uint64_t> expect_sf;
  for (std::size_t sf = 0; sf < 7; ++sf) expect_sf.push_back(sf);
  for (std::size_t sf = 12; sf < 20; ++sf) {
    if (sf % 10 != 9) expect_sf.push_back(sf);
  }
  ASSERT_EQ(events.size(), expect_sf.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].first_subframe_index, expect_sf[i]) << i;
    EXPECT_TRUE(events[i].result.preamble_found) << i;
    // Sync subframes lose two symbols to PSS/SSS and decode marginally
    // at this SNR; phase tracking is what this test pins down.
    if (expect_sf[i] % 5 != 0) {
      EXPECT_TRUE(events[i].result.payload.has_value()) << i;
    }
  }
}

TEST(StreamingReceiver, NotifyGapMidSubframeSkipsToNextBoundary) {
  // A hole that ends mid-subframe: the receiver must discard the partial
  // subframe after the hole and resume clean at the next boundary.
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 12, 56);
  const std::size_t spsf = cell.samples_per_subframe();

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  core::StreamingReceiver ue(cfg);

  ue.feed(std::span<const cf32>(s.rx).subspan(0, 3 * spsf),
          std::span<const cf32>(s.ambient).subspan(0, 3 * spsf));
  // Gap of 2.5 subframes: stream resumes at position 5.5 subframes;
  // the half subframe up to boundary 6 must be skipped.
  ue.notify_gap(2 * spsf + spsf / 2);
  std::vector<core::StreamingReceiver::PacketEvent> events;
  for (const auto& e : ue.feed(
           std::span<const cf32>(s.rx).subspan(5 * spsf + spsf / 2),
           std::span<const cf32>(s.ambient).subspan(5 * spsf + spsf / 2))) {
    events.push_back(e);
  }
  EXPECT_EQ(ue.next_subframe_index(), 12u);
  // Data subframes 6..11 minus listening slot 9.
  std::vector<std::uint64_t> expect_sf = {6, 7, 8, 10, 11};
  ASSERT_EQ(events.size(), expect_sf.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].first_subframe_index, expect_sf[i]) << i;
    EXPECT_TRUE(events[i].result.preamble_found) << i;
    if (expect_sf[i] % 5 != 0) {
      EXPECT_TRUE(events[i].result.payload.has_value()) << i;
    }
  }
}

TEST_P(StreamingAcquire, NotifyGapInAcquireModeForcesColdReacquisition) {
  // In acquisition mode a gap invalidates the frame alignment: the
  // receiver must drop to unaligned, re-run the PSS/SSS search on
  // post-gap samples, and come back decoding, at every bandwidth
  // (instantiated with AcquiresAlignmentFromUnalignedStream above).
  lte::CellConfig cell;
  cell.bandwidth = GetParam();
  const std::size_t d = cell.fft_size() / 128;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 45, 57);
  const std::size_t spsf = cell.samples_per_subframe();

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  cfg.acquire_alignment = true;
  core::StreamingReceiver ue(cfg);

  // Acquire on the first two frames.
  std::size_t events_before_gap = 0;
  for (std::size_t sf = 0; sf < 20; ++sf) {
    events_before_gap +=
        ue.feed(std::span<const cf32>(s.rx).subspan(sf * spsf, spsf),
                std::span<const cf32>(s.ambient).subspan(sf * spsf, spsf))
            .size();
  }
  EXPECT_TRUE(ue.aligned());
  // Subframes 0..19 minus listening slots 9 and 19.
  EXPECT_EQ(events_before_gap, 18u);

  // Drop 7.3 subframes of stream (not an integer number of subframes —
  // alignment is genuinely lost).
  const std::size_t gap = 7 * spsf + 3 * spsf / 10;
  ue.notify_gap(gap);
  EXPECT_FALSE(ue.aligned());
  EXPECT_EQ(ue.gaps_notified(), 1u);

  // Feed the rest of the stream from the post-gap position; the searcher
  // needs at least a frame to lock again, then packets resume.
  std::size_t events_after_gap = 0;
  std::size_t pos = 20 * spsf + gap;
  while (pos < s.rx.size()) {
    const std::size_t n = std::min<std::size_t>(30000 * d, s.rx.size() - pos);
    events_after_gap +=
        ue.feed(std::span<const cf32>(s.rx).subspan(pos, n),
                std::span<const cf32>(s.ambient).subspan(pos, n))
            .size();
    pos += n;
  }
  EXPECT_TRUE(ue.aligned());
  // The stream resumes inside subframe 27; the first frame boundary after
  // it is subframe 30, so 30..44 minus listening slot 39 remain.
  EXPECT_EQ(events_after_gap, 14u);
}

TEST(StreamingReceiver, FeedSpanStaysValidUntilNextFeed) {
  // The feed() return is a view into receiver-owned storage: its
  // contents must be stable and deep-copyable until the next feed call,
  // and slot reuse across calls must not leak stale payloads.
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 12, 58);
  const std::size_t spsf = cell.samples_per_subframe();

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  core::StreamingReceiver ue(cfg);

  std::size_t idx = 0;
  for (std::size_t sf = 0; sf < 12; ++sf) {
    const auto out =
        ue.feed(std::span<const cf32>(s.rx).subspan(sf * spsf, spsf),
                std::span<const cf32>(s.ambient).subspan(sf * spsf, spsf));
    // Read through the span only (no copies) before the next feed.
    for (const auto& e : out) {
      if (e.first_subframe_index % 5 != 0) {
        ASSERT_TRUE(e.result.payload.has_value());
      }
      if (e.result.payload.has_value()) {
        EXPECT_EQ(*e.result.payload, s.payloads[idx]) << idx;
      }
      ++idx;
    }
  }
  EXPECT_EQ(idx, s.payloads.size());
}

TEST(StreamingReceiver, MismatchedFeedTruncatesToCommonPrefix) {
  // Release-mode contract: a mismatched (rx, ambient) call keeps the
  // common prefix so the streams stay aligned.
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 2, 47);

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  core::StreamingReceiver ue(cfg);

  // Cut mid-packet so the prefix stays buffered instead of draining.
  const std::size_t cut =
      sched.packet_subframes * cell.samples_per_subframe() / 2;
#ifdef NDEBUG
  // Feed rx with a longer tail than ambient: only `cut` samples count.
  ue.feed(std::span<const cf32>(s.rx).subspan(0, cut + 100),
          std::span<const cf32>(s.ambient).subspan(0, cut));
  EXPECT_EQ(ue.buffered_samples(), cut);
  // Feed the rest aligned; the stream continues from the prefix.
  ue.feed(std::span<const cf32>(s.rx).subspan(cut),
          std::span<const cf32>(s.ambient).subspan(cut));
  EXPECT_EQ(ue.next_subframe_index(), 2u);
#else
  // Debug builds assert on the mismatch; just check the aligned path.
  ue.feed(std::span<const cf32>(s.rx).subspan(0, cut),
          std::span<const cf32>(s.ambient).subspan(0, cut));
  EXPECT_EQ(ue.buffered_samples(), cut);
#endif
}

}  // namespace
