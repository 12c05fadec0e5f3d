// UE cell search: PSS timing, N_ID2/N_ID1 recovery, frame boundary, noise
// and rotation robustness, and buffers cut anywhere in a frame.

#include <gtest/gtest.h>

#include "channel/awgn.hpp"
#include "dsp/rng.hpp"
#include "lte/enodeb.hpp"
#include "lte/ofdm.hpp"
#include "lte/signal_map.hpp"
#include "lte/ue_sync.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;
using dsp::cvec;

cvec ten_subframes(lte::Enodeb& enb) {
  cvec s;
  for (int sf = 0; sf < 10; ++sf) {
    const auto tx = enb.next_subframe();
    s.insert(s.end(), tx.samples.begin(), tx.samples.end());
  }
  return s;
}

class CellSearchPerBandwidth
    : public ::testing::TestWithParam<lte::Bandwidth> {};

TEST_P(CellSearchPerBandwidth, FindsCellAndTiming) {
  lte::Enodeb::Config cfg;
  cfg.cell.bandwidth = GetParam();
  cfg.cell.n_id_1 = 31;
  cfg.cell.n_id_2 = 2;
  cfg.seed = 42;
  lte::Enodeb enb(cfg);
  const cvec s = ten_subframes(enb);

  lte::CellSearcher searcher(cfg.cell);
  const auto result = searcher.search(s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->n_id_2, 2);
  EXPECT_EQ(result->n_id_1, 31);
  EXPECT_EQ(result->cell_id, cfg.cell.cell_id());

  // PSS useful parts repeat every 5 ms; the searcher may lock on any of
  // them (subframe 0 or 5 of either frame in the buffer), but the timing
  // must land exactly on the 5 ms grid anchored at symbol 6 + CP...
  const std::size_t expected =
      lte::symbol_offset_in_subframe(cfg.cell, lte::kPssSymbolIndex) +
      cfg.cell.cp_samples();
  const std::size_t half_frame = 5 * cfg.cell.samples_per_subframe();
  ASSERT_GE(result->pss_useful_start, expected);
  EXPECT_EQ((result->pss_useful_start - expected) % half_frame, 0u);
  // ...and the SSS disambiguation must recover the true frame boundary
  // (the buffer starts at subframe 0, so frame_start == 0 mod frame).
  EXPECT_EQ(result->frame_start, 0u);
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, CellSearchPerBandwidth,
                         ::testing::Values(lte::Bandwidth::kMHz1_4,
                                           lte::Bandwidth::kMHz5,
                                           lte::Bandwidth::kMHz20));

TEST(CellSearch, DetectsSubframe5Pss) {
  lte::Enodeb::Config cfg;
  cfg.cell.bandwidth = lte::Bandwidth::kMHz5;
  cfg.cell.n_id_1 = 7;
  cfg.seed = 4;
  lte::Enodeb enb(cfg);
  // Feed subframes 3..9 only: the first PSS in the buffer is subframe 5's.
  cvec s;
  for (std::size_t sf = 3; sf < 10; ++sf) {
    const auto tx = enb.make_subframe(sf);
    s.insert(s.end(), tx.samples.begin(), tx.samples.end());
  }
  lte::CellSearcher searcher(cfg.cell);
  const auto result = searcher.search(s);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->found_in_subframe5);
  EXPECT_EQ(result->n_id_1, 7);
}

TEST(CellSearch, SurvivesNoiseAndRotation) {
  lte::Enodeb::Config cfg;
  cfg.cell.bandwidth = lte::Bandwidth::kMHz5;
  cfg.cell.n_id_1 = 99;
  cfg.cell.n_id_2 = 1;
  cfg.seed = 5;
  lte::Enodeb enb(cfg);
  cvec s = ten_subframes(enb);
  const cf32 h{-0.7f, 0.7f};
  for (auto& v : s) v *= h;
  dsp::Rng noise(6);
  channel::add_awgn_snr(s, dsp::Db{5.0}, noise);

  lte::CellSearcher searcher(cfg.cell);
  const auto result = searcher.search(s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cell_id, cfg.cell.cell_id());
}

TEST(CellSearch, ReturnsNulloptOnPureNoise) {
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz5;
  dsp::Rng rng(7);
  cvec noise(cell.samples_per_subframe() * 6);
  for (auto& v : noise) v = rng.complex_normal();
  lte::CellSearcher searcher(cell);
  EXPECT_FALSE(searcher.search(noise, 0.5f).has_value());
}

TEST(CellSearch, ReplicaIsUnitPower) {
  lte::CellConfig cell;
  cell.bandwidth = lte::Bandwidth::kMHz10;
  lte::CellSearcher searcher(cell);
  for (std::uint8_t id2 = 0; id2 < 3; ++id2) {
    EXPECT_NEAR(dsp::mean_power(searcher.pss_replica(id2)), 1.0, 1e-3);
  }
}

// Buffers of 5 ms plus two symbols cut at every kind of position in a
// frame — including just after an SSS, where the strongest PSS in the
// buffer has lost its SSS — must name the cell and the frame start.
class CellSearchCuts : public ::testing::TestWithParam<lte::Bandwidth> {};

TEST_P(CellSearchCuts, EveryCutFindsCellAndFrameStart) {
  lte::Enodeb::Config cfg;
  cfg.cell.bandwidth = GetParam();
  cfg.cell.n_id_1 = 57;
  cfg.cell.n_id_2 = 1;
  cfg.seed = 12;
  lte::Enodeb enb(cfg);
  cvec s = ten_subframes(enb);
  const cvec second = ten_subframes(enb);
  s.insert(s.end(), second.begin(), second.end());

  const std::size_t k = cfg.cell.fft_size();
  const std::size_t symbol = k + cfg.cell.cp_samples();
  const std::size_t frame = cfg.cell.samples_per_frame();
  const std::size_t half = frame / 2;
  const std::size_t length = half + 2 * symbol;

  // Evenly spaced cuts, plus cuts around both PSS/SSS pairs of the frame.
  std::vector<std::size_t> cuts;
  const std::size_t coarse = GetParam() == lte::Bandwidth::kMHz1_4 ? 64 : 8;
  for (std::size_t i = 0; i < coarse; ++i) cuts.push_back(i * frame / coarse);
  const std::size_t pss =
      lte::symbol_offset_in_subframe(cfg.cell, lte::kPssSymbolIndex) +
      cfg.cell.cp_samples();
  for (const std::size_t base : {pss, pss + half}) {
    const std::size_t sss = base - symbol;
    for (const std::size_t cut :
         {sss - 1, sss, sss + 1, sss + symbol / 2, base - 1, base, base + 1}) {
      cuts.push_back(cut);
    }
  }

  lte::CellSearcher searcher(cfg.cell);
  for (const std::size_t cut : cuts) {
    const auto result =
        searcher.search(std::span<const cf32>(s).subspan(cut, length));
    ASSERT_TRUE(result.has_value()) << "cut " << cut;
    EXPECT_EQ(result->cell_id, cfg.cell.cell_id()) << "cut " << cut;
    EXPECT_EQ(result->frame_start, (frame - cut % frame) % frame)
        << "cut " << cut;
    EXPECT_GE(result->pss_useful_start, symbol) << "cut " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, CellSearchCuts,
                         ::testing::Values(lte::Bandwidth::kMHz1_4,
                                           lte::Bandwidth::kMHz20));

TEST(CellSearch, PssWithoutItsSssIsNoResult) {
  lte::Enodeb::Config cfg;
  cfg.cell.bandwidth = lte::Bandwidth::kMHz1_4;
  lte::Enodeb enb(cfg);
  const cvec s = ten_subframes(enb);
  // The buffer holds subframe 0's whole PSS but starts one sample after
  // its SSS: no lag can name the cell or the frame.
  const std::size_t k = cfg.cell.fft_size();
  const std::size_t symbol = k + cfg.cell.cp_samples();
  const std::size_t pss =
      lte::symbol_offset_in_subframe(cfg.cell, lte::kPssSymbolIndex) +
      cfg.cell.cp_samples();
  const auto buffer =
      std::span<const cf32>(s).subspan(pss - symbol + 1, symbol + k);
  lte::CellSearcher searcher(cfg.cell);
  EXPECT_FALSE(searcher.search(buffer).has_value());
}

}  // namespace
