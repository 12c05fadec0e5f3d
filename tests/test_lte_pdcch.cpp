// PDCCH-lite: DCI encode/map/decode and the fully blind ambient
// reconstruction it enables (the RE-type derivation itself is checked in
// test_core_ambient, beside the rebuild oracle that uses it).

#include <gtest/gtest.h>

#include "channel/awgn.hpp"
#include "core/ambient_reconstructor.hpp"
#include "dsp/rng.hpp"
#include "lte/enodeb.hpp"
#include "lte/pdcch.hpp"
#include "lte/signal_map.hpp"

namespace {

using namespace lscatter;
using dsp::cf32;

TEST(Dci, BitsRoundTrip) {
  lte::Dci dci;
  dci.center_active_mask = 0x2A7F;
  dci.mcs = lte::Modulation::kQam64;
  const auto bits = lte::dci_to_bits(dci);
  const auto back = lte::bits_to_dci(bits);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, dci);
  EXPECT_TRUE(dci.center_active(0));
  EXPECT_FALSE(dci.center_active(7));
}

TEST(Dci, InvalidMcsRejected) {
  std::array<std::uint8_t, 16> bits{};
  bits[14] = 1;
  bits[15] = 1;  // MCS code 3
  EXPECT_FALSE(lte::bits_to_dci(bits).has_value());
}

TEST(Pdcch, MapDecodeRoundTrip) {
  lte::CellConfig cfg;
  cfg.bandwidth = lte::Bandwidth::kMHz10;
  cfg.n_id_1 = 33;
  lte::Dci dci;
  dci.center_active_mask = 0x1234;
  dci.mcs = lte::Modulation::kQpsk;
  lte::ResourceGrid grid(cfg);
  lte::map_pdcch(cfg, dci, grid);
  const auto back = lte::decode_pdcch(cfg, grid);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, dci);
}

TEST(Pdcch, ControlRegionAvoidsCrs) {
  lte::CellConfig cfg;
  cfg.bandwidth = lte::Bandwidth::kMHz5;
  cfg.n_id_1 = 7;
  const auto pos = lte::pdcch_subcarriers(cfg);
  const std::size_t v_shift = cfg.cell_id() % 6;
  for (const std::size_t k : pos) {
    EXPECT_NE(k % 6, v_shift % 6);
  }
  // 2 of every 12 subcarriers are CRS at l=0 (wait: 1 in 6).
  EXPECT_EQ(pos.size(), cfg.n_subcarriers() * 5 / 6);
}

TEST(Pdcch, DecodeSurvivesNoise) {
  lte::CellConfig cfg;
  cfg.bandwidth = lte::Bandwidth::kMHz20;
  lte::Dci dci;
  dci.center_active_mask = 0x3001;
  lte::ResourceGrid grid(cfg);
  lte::map_pdcch(cfg, dci, grid);
  dsp::Rng rng(4);
  for (const std::size_t k : lte::pdcch_subcarriers(cfg)) {
    grid.at(lte::kPdcchSymbolIndex, k) += rng.complex_normal(0.5);
  }
  const auto back = lte::decode_pdcch(cfg, grid);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, dci);
}

TEST(BlindReconstruction, NoGenieInputsStillRebuildsTheWaveform) {
  lte::Enodeb::Config ecfg;
  ecfg.cell.bandwidth = lte::Bandwidth::kMHz5;
  ecfg.cell.n_id_1 = 12;
  ecfg.cell.n_id_2 = 1;
  ecfg.seed = 8;
  lte::Enodeb enb(ecfg);
  const auto tx = enb.make_subframe(3);

  // Realistic direct-link input: scaled, rotated, noisy.
  dsp::cvec rx(tx.samples.size());
  const cf32 h{3e-4f, -2e-4f};
  for (std::size_t n = 0; n < rx.size(); ++n) rx[n] = h * tx.samples[n];
  dsp::Rng noise(9);
  channel::add_awgn(rx, 1e-12, noise);

  core::AmbientReconstructor rec(ecfg.cell);
  const auto blind = rec.reconstruct_blind(rx, 3, ecfg.enable_pbch,
                                           ecfg.sync_boost_db);
  ASSERT_TRUE(blind.has_value());

  // Compare against the true waveform: the blind rebuild should be close
  // to exact (a few QAM decisions may flip at this SNR).
  double err = 0.0;
  double ref = 0.0;
  for (std::size_t n = 0; n < tx.samples.size(); ++n) {
    err += std::norm(blind->samples[n] - tx.samples[n]);
    ref += std::norm(tx.samples[n]);
  }
  EXPECT_LT(err / ref, 0.02);
}

TEST(BlindReconstruction, FailsCleanlyWithoutControlChannel) {
  lte::Enodeb::Config ecfg;
  ecfg.cell.bandwidth = lte::Bandwidth::kMHz5;
  ecfg.enable_pdcch = false;  // nothing to decode
  ecfg.seed = 10;
  lte::Enodeb enb(ecfg);
  const auto tx = enb.make_subframe(2);
  core::AmbientReconstructor rec(ecfg.cell);
  EXPECT_FALSE(rec.reconstruct_blind(tx.samples, 2).has_value());
}

}  // namespace
