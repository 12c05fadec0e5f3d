// eNodeB TX + UE RX: clean-channel decode, channel estimation under phase
// rotation, AWGN degradation sweep, signal placement rules.

#include <gtest/gtest.h>

#include <cmath>

#include "channel/awgn.hpp"
#include "dsp/rng.hpp"
#include "lte/enodeb.hpp"
#include "lte/signal_map.hpp"
#include "lte/ue_rx.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;

lte::Enodeb::Config config_for(lte::Bandwidth bw, std::uint64_t seed = 9) {
  lte::Enodeb::Config c;
  c.cell.bandwidth = bw;
  c.cell.n_id_1 = 12;
  c.cell.n_id_2 = 1;
  c.seed = seed;
  return c;
}

TEST(Enodeb, SubframeHasExpectedSizeAndPower) {
  lte::Enodeb enb(config_for(lte::Bandwidth::kMHz5));
  const auto tx = enb.next_subframe();
  EXPECT_EQ(tx.samples.size(), enb.cell().samples_per_subframe());
  // Unit-power REs -> roughly unit-power samples (partial loading and
  // boosts shift it slightly).
  EXPECT_NEAR(dsp::mean_power(tx.samples), 1.0, 0.35);
}

TEST(Enodeb, SyncSignalsOnlyInSubframes0And5) {
  lte::Enodeb enb(config_for(lte::Bandwidth::kMHz5));
  for (const std::size_t sf : {0u, 1u, 4u, 5u, 9u}) {
    const auto tx = enb.make_subframe(sf);
    bool has_pss = false;
    for (std::size_t k = 0; k < enb.cell().n_subcarriers(); ++k) {
      if (tx.grid.type_at(lte::kPssSymbolIndex, k) == lte::ReType::kPss) {
        has_pss = true;
      }
    }
    EXPECT_EQ(has_pss, sf == 0 || sf == 5) << "subframe " << sf;
  }
}

TEST(Enodeb, CrsLatticeMatchesCellShift) {
  const auto cfg = config_for(lte::Bandwidth::kMHz10);
  lte::Enodeb enb(cfg);
  const auto tx = enb.make_subframe(3);
  const std::size_t v_shift = cfg.cell.cell_id() % 6;
  const auto positions = lte::crs_subcarriers(cfg.cell, 0);
  EXPECT_EQ(positions.size(), 2 * cfg.cell.n_rb());
  for (const std::size_t k : positions) {
    EXPECT_EQ(k % 6, v_shift % 6);
    EXPECT_EQ(tx.grid.type_at(0, k), lte::ReType::kCrs);
  }
}

TEST(Enodeb, PayloadBitsMatchGridCapacity) {
  lte::Enodeb enb(config_for(lte::Bandwidth::kMHz1_4));
  const auto tx = enb.make_subframe(2);
  std::size_t data_res = 0;
  for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
    for (std::size_t k = 0; k < enb.cell().n_subcarriers(); ++k) {
      if (tx.grid.type_at(l, k) == lte::ReType::kData) ++data_res;
    }
  }
  EXPECT_EQ(tx.payload_bits.size(),
            data_res * lte::bits_per_symbol(enb.config().modulation) - 24);
}

TEST(UeReceiver, CleanChannelDecodesPerfectly) {
  const auto cfg = config_for(lte::Bandwidth::kMHz5);
  lte::Enodeb enb(cfg);
  lte::UeReceiver ue(cfg.cell);
  const auto tx = enb.next_subframe();
  const auto res = ue.receive_subframe(tx.samples, tx, cfg.modulation);
  EXPECT_TRUE(res.crc_ok);
  EXPECT_EQ(res.bit_errors, 0u);
  EXPECT_LT(res.evm_rms, 1e-3);
}

TEST(UeReceiver, ChannelEstimateCorrectsPhaseRotation) {
  const auto cfg = config_for(lte::Bandwidth::kMHz5);
  lte::Enodeb enb(cfg);
  lte::UeReceiver ue(cfg.cell);
  const auto tx = enb.next_subframe();
  auto rx = tx.samples;
  const cf32 h{0.6f, -0.8f};  // |h| = 1, -53 degrees
  for (auto& v : rx) v *= h;
  const auto res = ue.receive_subframe(rx, tx, cfg.modulation);
  EXPECT_TRUE(res.crc_ok);
  EXPECT_EQ(res.bit_errors, 0u);
}

TEST(UeReceiver, EstimatedChannelMatchesAppliedScalar) {
  const auto cfg = config_for(lte::Bandwidth::kMHz1_4);
  lte::Enodeb enb(cfg);
  lte::UeReceiver ue(cfg.cell);
  const auto tx = enb.make_subframe(1);
  auto rx = tx.samples;
  const cf32 h{0.3f, 0.4f};
  for (auto& v : rx) v *= h;
  lte::ResourceGrid grid(cfg.cell);
  ue.demodulate_grid_into(rx, grid);
  lte::ChannelEstimate est;
  ue.estimate_channel_into(grid, 1, est);
  for (std::size_t k = 0; k < est.h.size(); k += 7) {
    EXPECT_NEAR(est.h[k].real(), h.real(), 0.02);
    EXPECT_NEAR(est.h[k].imag(), h.imag(), 0.02);
  }
}

class UeAwgnSweep : public ::testing::TestWithParam<double> {};

TEST_P(UeAwgnSweep, BerDegradesMonotonicallyWithNoise) {
  const double snr_db = GetParam();
  const auto cfg = config_for(lte::Bandwidth::kMHz5, 77);
  lte::Enodeb enb(cfg);
  lte::UeReceiver ue(cfg.cell);
  dsp::Rng noise(static_cast<std::uint64_t>(snr_db) + 1);

  double ber = 0.0;
  for (int i = 0; i < 3; ++i) {
    const auto tx = enb.next_subframe();
    auto rx = tx.samples;
    channel::add_awgn_snr(rx, dsp::Db{snr_db}, noise);
    ber += ue.receive_subframe(rx, tx, cfg.modulation).ber() / 3.0;
  }
  // 16QAM needs ~14 dB to go nearly clean.
  if (snr_db >= 22.0) {
    EXPECT_LT(ber, 1e-3);
  } else if (snr_db <= 6.0) {
    EXPECT_GT(ber, 1e-2);
  }
}

INSTANTIATE_TEST_SUITE_P(SnrPoints, UeAwgnSweep,
                         ::testing::Values(0.0, 6.0, 12.0, 22.0, 30.0));

}  // namespace
