// PBCH/MIB: encoding, mapping, blind decode, and the full acquisition
// chain (PSS/SSS search -> frame timing -> MIB -> bandwidth discovery).

#include <gtest/gtest.h>

#include "channel/awgn.hpp"
#include "dsp/rng.hpp"
#include "lte/enodeb.hpp"
#include "lte/pbch.hpp"
#include "lte/signal_map.hpp"
#include "lte/ue_rx.hpp"
#include "lte/ue_sync.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;

TEST(Mib, BitsRoundTrip) {
  lte::Mib mib;
  mib.bandwidth = lte::Bandwidth::kMHz10;
  mib.sfn = 789;
  const auto bits = lte::mib_to_bits(mib);
  const auto back = lte::bits_to_mib(bits);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, mib);
}

TEST(Mib, InvalidBandwidthRejected) {
  std::array<std::uint8_t, 24> bits{};
  bits[0] = bits[1] = bits[2] = 1;  // bandwidth code 7
  EXPECT_FALSE(lte::bits_to_mib(bits).has_value());
}

TEST(Pbch, MapsOnlyIntoCentralRbsOfSymbols7To10) {
  lte::CellConfig cfg;
  cfg.bandwidth = lte::Bandwidth::kMHz10;
  lte::ResourceGrid grid(cfg);
  lte::map_pbch(cfg, {}, grid);
  const std::size_t first = cfg.n_subcarriers() / 2 - 36;
  for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
    for (std::size_t k = 0; k < cfg.n_subcarriers(); ++k) {
      const bool is_pbch = grid.type_at(l, k) == lte::ReType::kPbch;
      const bool in_region =
          (l >= 7 && l <= 10) && k >= first && k < first + 72;
      if (is_pbch) { EXPECT_TRUE(in_region) << l << "," << k; }
      if (!in_region) { EXPECT_FALSE(is_pbch); }
    }
  }
}

TEST(Pbch, CleanDecodeRecoversMib) {
  lte::CellConfig cfg;
  cfg.bandwidth = lte::Bandwidth::kMHz5;
  cfg.n_id_1 = 77;
  lte::Mib mib;
  mib.bandwidth = cfg.bandwidth;
  mib.sfn = 321;
  lte::ResourceGrid grid(cfg);
  lte::map_pbch(cfg, mib, grid);
  const auto decoded = lte::decode_pbch(cfg, grid);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, mib);
}

TEST(Pbch, RepetitionCombiningSurvivesHeavyNoise) {
  lte::CellConfig cfg;
  cfg.bandwidth = lte::Bandwidth::kMHz20;
  lte::Mib mib;
  mib.bandwidth = cfg.bandwidth;
  mib.sfn = 5;
  lte::ResourceGrid grid(cfg);
  lte::map_pbch(cfg, mib, grid);
  // 0 dB per-RE SNR: single QPSK symbols would fail, ~13x repetition
  // combining must not.
  dsp::Rng rng(3);
  for (const std::size_t l : lte::kPbchSymbolIndices) {
    for (const std::size_t k : lte::pbch_subcarriers(cfg, l)) {
      grid.at(l, k) += rng.complex_normal(1.0);
    }
  }
  const auto decoded = lte::decode_pbch(cfg, grid);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, mib);
}

TEST(Pbch, CorruptionFailsCrcInsteadOfLying) {
  lte::CellConfig cfg;
  cfg.bandwidth = lte::Bandwidth::kMHz5;
  lte::ResourceGrid grid(cfg);
  lte::map_pbch(cfg, {}, grid);
  // Invert the whole region: every codeword bit flips.
  for (const std::size_t l : lte::kPbchSymbolIndices) {
    for (const std::size_t k : lte::pbch_subcarriers(cfg, l)) {
      grid.at(l, k) = -grid.at(l, k);
    }
  }
  EXPECT_FALSE(lte::decode_pbch(cfg, grid).has_value());
}

TEST(Acquisition, FullChainFindsCellTimingAndBandwidth) {
  // Blind UE: PSS/SSS search on the waveform, derive the frame start,
  // demodulate subframe 0, equalize by CRS, read the MIB.
  lte::Enodeb::Config ecfg;
  ecfg.cell.bandwidth = lte::Bandwidth::kMHz5;
  ecfg.cell.n_id_1 = 44;
  ecfg.cell.n_id_2 = 2;
  ecfg.seed = 9;
  lte::Enodeb enb(ecfg);

  dsp::cvec stream;
  for (std::size_t sf = 0; sf < 10; ++sf) {
    const auto tx = enb.next_subframe();
    stream.insert(stream.end(), tx.samples.begin(), tx.samples.end());
  }
  const cf32 h{0.5f, -0.5f};
  for (auto& v : stream) v *= h;
  dsp::Rng noise(10);
  channel::add_awgn_snr(stream, dsp::Db{15.0}, noise);

  lte::CellSearcher searcher(ecfg.cell);
  const auto found = searcher.search(stream);
  ASSERT_TRUE(found.has_value());
  ASSERT_EQ(found->cell_id, ecfg.cell.cell_id());

  // Frame start is 0 for this stream; demodulate subframe 0 and decode.
  lte::UeReceiver ue(ecfg.cell);
  lte::ResourceGrid grid(ecfg.cell);
  ue.demodulate_grid_into(
      std::span<const cf32>(stream).subspan(found->frame_start), grid);
  lte::ChannelEstimate est;
  ue.estimate_channel_into(grid, 0, est);
  lte::ResourceGrid equalized = grid;
  for (const std::size_t l : lte::kPbchSymbolIndices) {
    for (const std::size_t k : lte::pbch_subcarriers(ecfg.cell, l)) {
      const cf32 hh = est.h[k];
      const float p = std::norm(hh);
      if (p > 1e-12f) equalized.at(l, k) = grid.at(l, k) * std::conj(hh) / p;
    }
  }
  const auto mib = lte::decode_pbch(ecfg.cell, equalized);
  ASSERT_TRUE(mib.has_value());
  EXPECT_EQ(mib->bandwidth, lte::Bandwidth::kMHz5);
  EXPECT_EQ(mib->sfn, 0);
}

}  // namespace
