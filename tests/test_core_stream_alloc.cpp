// Steady-state zero-allocation enforcement for the streaming decode hot
// path (DESIGN.md §10, §15). This binary installs the counting
// operator-new hook from obs/alloc_probe.hpp (one TU only!) and proves
// that after a warmup pass, feeding IQ through StreamingReceiver, pushing/
// popping through StreamRing, and rebuilding the blind ambient with
// AmbientReconstructor::reconstruct_blind_into perform exactly zero heap
// allocations.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "core/ambient_reconstructor.hpp"
#include "core/framing.hpp"
#include "core/stream_ring.hpp"
#include "core/streaming_receiver.hpp"
#include "lte/enodeb.hpp"
#include "obs/alloc_probe.hpp"
#include "tag/modulator.hpp"
#include "tag/tag_controller.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;
using dsp::cvec;

struct Stream {
  cvec rx;
  cvec ambient;
  std::size_t packets = 0;
};

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
      plan = ctl.plan_subframe(
          sf, true,
          core::split_bits(codec.encode(prng.bits(codec.payload_bits())),
                           ctl.bits_per_symbol()));
      ++s.packets;
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

TEST(StreamAlloc, ProbeCountsThisTestsOwnAllocations) {
  const auto before = obs::alloc_probe_count();
  auto* v = new std::vector<int>(100);
  delete v;
  EXPECT_GE(obs::alloc_probe_count() - before, 1u);
}

// Feeds three frames one subframe per call; the last two must not
// allocate.
void expect_steady_state_feed_allocates_nothing(lte::Bandwidth bandwidth) {
  lte::CellConfig cell;
  cell.bandwidth = bandwidth;
  tag::TagScheduleConfig sched;
  // Three full frames: the per-subframe packet sizes cycle with period
  // 10 (sync subframes carry fewer bits), so one frame of warmup visits
  // every codec size the steady state will ever need.
  const Stream s = make_stream(cell, sched, 30, 4242);
  const std::size_t spsf = cell.samples_per_subframe();

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  core::StreamingReceiver ue(cfg);

  // Warmup: first full frame. Grows event slots, demod workspace, codec
  // cache, FFT and offset-search scratch, obs metric registrations.
  std::size_t events = 0;
  for (std::size_t sf = 0; sf < 10; ++sf) {
    events += ue.feed(std::span<const cf32>(s.rx).subspan(sf * spsf, spsf),
                      std::span<const cf32>(s.ambient).subspan(sf * spsf,
                                                              spsf))
                  .size();
  }

  // Steady state: the remaining two frames must be allocation-free.
  const auto before = obs::alloc_probe_count();
  for (std::size_t sf = 10; sf < 30; ++sf) {
    events += ue.feed(std::span<const cf32>(s.rx).subspan(sf * spsf, spsf),
                      std::span<const cf32>(s.ambient).subspan(sf * spsf,
                                                              spsf))
                  .size();
  }
  const auto delta = obs::alloc_probe_count() - before;
  EXPECT_EQ(delta, 0u) << "steady-state feed() allocated " << delta
                       << " time(s)";
  EXPECT_EQ(events, s.packets);
}

TEST(StreamAlloc, SteadyStateFeedAllocatesNothing) {
  expect_steady_state_feed_allocates_nothing(lte::Bandwidth::kMHz1_4);
}

TEST(StreamAlloc, SteadyStateFeedAllocatesNothingAt20MHz) {
  expect_steady_state_feed_allocates_nothing(lte::Bandwidth::kMHz20);
}

TEST(StreamAlloc, RaggedChunksAllocateNothingAfterOneFrame) {
  // SDR-style chunks of 1 to samples_per_packet samples. A new record of
  // buffered + chunk must not reallocate the stream buffers.
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 100, 99);
  const std::size_t spsf = cell.samples_per_subframe();
  const std::size_t spp = sched.packet_subframes * spsf;

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  core::StreamingReceiver ue(cfg);

  dsp::Rng chunks(2590);
  std::size_t pos = 0;
  std::size_t events = 0;
  std::uint64_t before = 0;
  while (pos < s.rx.size()) {
    // Warmup ends exactly on the first frame boundary.
    const std::size_t limit = pos < 10 * spsf ? 10 * spsf : s.rx.size();
    const std::size_t n = std::min<std::size_t>(
        1 + chunks.uniform_int(static_cast<std::uint32_t>(spp)),
        limit - pos);
    events += ue.feed(std::span<const cf32>(s.rx).subspan(pos, n),
                      std::span<const cf32>(s.ambient).subspan(pos, n))
                  .size();
    pos += n;
    if (pos == 10 * spsf) before = obs::alloc_probe_count();
  }
  const auto delta = obs::alloc_probe_count() - before;
  EXPECT_EQ(delta, 0u) << "ragged feed() allocated " << delta
                       << " time(s) after warmup";
  EXPECT_EQ(events, s.packets);
}

TEST(StreamAlloc, RingPushPopAllocatesNothingAfterFirstLap) {
  core::StreamRing ring(1920, 8);
  cvec rx(1920, cf32{1.0f, 0.0f});
  core::StreamRing::Chunk out;

  // First lap sizes the pop target; a few unpopped pushes warm the
  // drop-oldest path (first use registers the obs drop counter).
  for (int k = 0; k < 8; ++k) {
    ring.push(rx, rx, 0.0);
    ASSERT_TRUE(ring.pop(out));
  }
  for (int k = 0; k < 10; ++k) {
    ring.push(rx, rx, 0.0);
  }
  while (ring.pop(out)) {
  }

  const auto before = obs::alloc_probe_count();
  for (int k = 0; k < 1000; ++k) {
    ring.push(rx, rx, 0.0);
    ASSERT_TRUE(ring.pop(out));
  }
  // Overrun path too: drop-oldest must not allocate either.
  for (int k = 0; k < 100; ++k) {
    ring.push(rx, rx, 0.0);
  }
  EXPECT_EQ(obs::alloc_probe_count() - before, 0u);
}

TEST(StreamAlloc, NotifyGapKeepsSteadyStateAllocationFree) {
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz1_4;
  tag::TagScheduleConfig sched;
  const Stream s = make_stream(cell, sched, 40, 17);
  const std::size_t spsf = cell.samples_per_subframe();

  core::StreamingReceiver::Config cfg;
  cfg.cell = cell;
  cfg.schedule = sched;
  core::StreamingReceiver ue(cfg);

  // Warmup frame + one gap (gap handling itself registers counters).
  for (std::size_t sf = 0; sf < 10; ++sf) {
    ue.feed(std::span<const cf32>(s.rx).subspan(sf * spsf, spsf),
            std::span<const cf32>(s.ambient).subspan(sf * spsf, spsf));
  }
  ue.notify_gap(10 * spsf);  // skip subframes 10..19

  const auto before = obs::alloc_probe_count();
  for (std::size_t sf = 20; sf < 30; ++sf) {
    ue.feed(std::span<const cf32>(s.rx).subspan(sf * spsf, spsf),
            std::span<const cf32>(s.ambient).subspan(sf * spsf, spsf));
  }
  ue.notify_gap(5 * spsf);  // skip 30..34
  for (std::size_t sf = 35; sf < 40; ++sf) {
    ue.feed(std::span<const cf32>(s.rx).subspan(sf * spsf, spsf),
            std::span<const cf32>(s.ambient).subspan(sf * spsf, spsf));
  }
  EXPECT_EQ(obs::alloc_probe_count() - before, 0u);
  EXPECT_EQ(ue.gaps_notified(), 2u);
}

// One warm call sizes the reconstructor's working set (and the thread's
// FFT scratch and obs registrations); after it, plain, sync and PBCH
// subframes rebuild into the caller's buffer without touching the heap,
// and the allocating wrapper makes exactly one allocation: its result.
void expect_blind_rebuild_allocates_nothing(lte::Bandwidth bandwidth) {
  lte::Enodeb::Config ecfg;
  ecfg.cell.bandwidth = bandwidth;
  ecfg.seed = 31;
  lte::Enodeb enb(ecfg);
  std::vector<lte::SubframeTx> txs;
  for (std::size_t sf = 0; sf <= 10; ++sf) txs.push_back(enb.next_subframe());

  core::AmbientReconstructor rec(ecfg.cell);
  cvec out(ecfg.cell.samples_per_subframe());
  ASSERT_TRUE(rec.reconstruct_blind_into(txs[1].samples, 1,
                                         ecfg.enable_pbch, ecfg.sync_boost_db,
                                         out));
  // Plain, sync, PBCH (SFN 0) and PBCH (SFN 1) subframes.
  for (const std::size_t sf : {2u, 5u, 0u, 10u}) {
    auto before = obs::alloc_probe_count();
    const auto n = rec.reconstruct_blind_into(
        txs[sf].samples, sf, ecfg.enable_pbch, ecfg.sync_boost_db, out);
    auto delta = obs::alloc_probe_count() - before;
    ASSERT_TRUE(n.has_value()) << "sf " << sf;
    EXPECT_EQ(delta, 0u) << lte::to_string(bandwidth) << " sf " << sf
                         << ": reconstruct_blind_into allocated " << delta
                         << " time(s)";

    before = obs::alloc_probe_count();
    const auto rebuilt = rec.reconstruct_blind(
        txs[sf].samples, sf, ecfg.enable_pbch, ecfg.sync_boost_db);
    delta = obs::alloc_probe_count() - before;
    ASSERT_TRUE(rebuilt.has_value()) << "sf " << sf;
    EXPECT_EQ(delta, 1u) << lte::to_string(bandwidth) << " sf " << sf
                         << ": reconstruct_blind allocated " << delta
                         << " time(s)";
  }
}

TEST(StreamAlloc, BlindRebuildAllocatesNothingAfterOneCall) {
  expect_blind_rebuild_allocates_nothing(lte::Bandwidth::kMHz1_4);
}

TEST(StreamAlloc, BlindRebuildAllocatesNothingAfterOneCallAt20MHz) {
  expect_blind_rebuild_allocates_nothing(lte::Bandwidth::kMHz20);
}

TEST(StreamAlloc, ConstructingAReconstructorAllocatesNothing) {
  // LinkSimulator builds one per drop even when the genie ambient never
  // calls it, so the working set waits for the first call.
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz20;
  const core::AmbientReconstructor warm(cell);  // warms the FFT plan cache
  const auto before = obs::alloc_probe_count();
  const core::AmbientReconstructor rec(cell);
  EXPECT_EQ(obs::alloc_probe_count() - before, 0u);
}

}  // namespace
