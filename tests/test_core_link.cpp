// End-to-end LScatter link integration tests: at close range the packet
// pipeline must run error-free; degradation must be monotone-ish in
// distance; the scheduled PHY rate must match the paper's headline math.

#include <gtest/gtest.h>

#include "core/framing.hpp"
#include "core/link_simulator.hpp"
#include "core/scenario.hpp"
#include "dsp/rng.hpp"

namespace {

using namespace lscatter;
using core::LinkConfig;
using core::LinkMetrics;
using core::LinkSimulator;
using core::make_scenario;
using core::Scene;
using core::ScenarioOptions;

TEST(LinkSimulator, CloseRangeHitsPaperHeadlineThroughput) {
  LinkConfig cfg = make_scenario(Scene::kSmartHome);
  cfg.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  LinkSimulator sim(cfg);
  const LinkMetrics m = sim.run(20);
  EXPECT_GT(m.packets_sent, 15u);
  EXPECT_EQ(m.packets_detected, m.packets_sent);
  // Per-unit decisions on the OFDM envelope have a ~1/(4*SNR) BER floor;
  // at close range it must be well below 1e-3 (paper Fig. 24 short range).
  EXPECT_LT(m.ber(), 1e-3);
  // ~13.5 Mbps at 20 MHz (paper: 13.63).
  EXPECT_GT(m.throughput_bps(), 12.5e6);
  EXPECT_LT(m.throughput_bps(), 14.5e6);
}

TEST(LinkSimulator, ShortPacketsSurviveCrcAtCloseRange) {
  LinkConfig cfg = make_scenario(Scene::kSmartHome);
  cfg.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  cfg.schedule.max_data_symbols_per_packet = 1;  // 1200-bit packets
  LinkSimulator sim(cfg);
  const LinkMetrics m = sim.run(20);
  EXPECT_GT(m.packet_delivery_ratio(), 0.8);
  EXPECT_GT(m.goodput_bps(), 0.0);
}

TEST(LinkSimulator, ScheduledPhyRateMatchesPaperHeadline) {
  const LinkConfig cfg = make_scenario(Scene::kSmartHome);
  LinkSimulator sim(cfg);
  // 113 modulated data symbols per frame * 1200 bits = 13.56 Mbps.
  EXPECT_NEAR(sim.scheduled_phy_rate_bps(), 13.56e6, 0.2e6);
}

TEST(LinkSimulator, BandwidthScalesThroughput) {
  ScenarioOptions opt;
  opt.bandwidth = lte::Bandwidth::kMHz1_4;
  LinkConfig cfg = make_scenario(Scene::kSmartHome, opt);
  cfg.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  LinkSimulator sim(cfg);
  const LinkMetrics m = sim.run(20);
  EXPECT_LT(m.ber(), 1e-2);
  // ~0.81 Mbps at 1.4 MHz (paper: ~800 kbps).
  EXPECT_GT(m.throughput_bps(), 0.7e6);
  EXPECT_LT(m.throughput_bps(), 0.95e6);
}

TEST(LinkSimulator, FarLinkDegrades) {
  LinkConfig cfg = make_scenario(Scene::kSmartHome);
  cfg.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  cfg.geometry.enb_tag_ft = 25.0;
  cfg.geometry.tag_ue_ft = 60.0;
  LinkSimulator near_sim(make_scenario(Scene::kSmartHome));
  LinkSimulator far_sim(cfg);
  const LinkMetrics near_m = near_sim.run(20);
  const LinkMetrics far_m = far_sim.run(20);
  EXPECT_LT(far_m.throughput_bps(), near_m.throughput_bps());
  EXPECT_GT(far_m.ber(), near_m.ber());
}

TEST(LinkSimulator, SyncErrorWithinToleranceIsHarmless) {
  LinkConfig cfg = make_scenario(Scene::kSmartHome);
  cfg.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  // Push the residual sync error near (but within) the one-sided
  // tolerance of (K - N_sc)/2 units = 424 units = 13.8 us at 20 MHz.
  cfg.sync.bias_s = 10e-6;
  cfg.sync.sigma_s = 0.5e-6;
  cfg.search.range_units = 500;  // 10 us = 307 units at 30.72 Msps
  LinkSimulator sim(cfg);
  const LinkMetrics m = sim.run(10);
  EXPECT_LT(m.ber(), 1e-3);
  EXPECT_EQ(m.packets_detected, m.packets_sent);
}

TEST(LinkSimulator, SyncErrorBeyondToleranceBreaksLink) {
  LinkConfig cfg = make_scenario(Scene::kSmartHome);
  cfg.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  cfg.sync.bias_s = 30e-6;  // > 13.8 us tolerance
  cfg.sync.sigma_s = 0.1e-6;
  // Widen the receiver search so failure is due to window clipping, not
  // the search range.
  cfg.search.range_units = 1200;
  LinkSimulator sim(cfg);
  const LinkMetrics m = sim.run(10);
  EXPECT_GT(m.ber(), 0.05);
}

TEST(LinkSimulator, DropStateReportsBudget) {
  LinkConfig cfg = make_scenario(Scene::kSmartHome);
  cfg.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  LinkSimulator sim(cfg);
  (void)sim.run(2);
  const core::DropState& d = sim.last_drop();
  EXPECT_LT(d.backscatter_rx_dbm, cfg.enodeb.tx_power_dbm);
  EXPECT_LT(d.noise_dbm, d.backscatter_rx_dbm);  // positive SNR up close
  EXPECT_GT(d.mean_snr_db.value(), 15.0);
}

// score_packet is the per-packet scorer LinkSimulator::run and
// run_multi_tag share: a miss costs half the payload, a decoded packet
// its true bit errors, and only a CRC-clean exact payload counts as ok.
TEST(ScorePacket, ScoresMissedCleanAndCorruptPackets) {
  const core::PacketCodec codec(132);  // 100 payload bits + CRC-32
  dsp::Rng rng(7);
  const std::vector<std::uint8_t> payload = rng.bits(codec.payload_bits());
  core::PacketDemodResult res;
  res.coded_bits = codec.encode(payload);
  LinkMetrics m;

  core::score_packet(res, payload, 132, core::Fec::kNone, m);
  EXPECT_EQ(m.packets_sent, 1u);
  EXPECT_EQ(m.bits_sent, 100u);
  EXPECT_EQ(m.packets_detected, 0u);
  EXPECT_EQ(m.bit_errors, 50u);
  EXPECT_EQ(m.bits_delivered, 0u);

  res.preamble_found = true;
  res.payload = codec.decode(res.coded_bits);
  core::score_packet(res, payload, 132, core::Fec::kNone, m);
  EXPECT_EQ(m.packets_detected, 1u);
  EXPECT_EQ(m.bit_errors, 50u);
  EXPECT_EQ(m.bits_delivered, 100u);
  EXPECT_EQ(m.packets_ok, 1u);
  EXPECT_EQ(m.bits_crc_ok, 100u);

  res.coded_bits[3] ^= 1;  // one payload bit wrong: the CRC fails
  res.payload = codec.decode(res.coded_bits);
  ASSERT_FALSE(res.payload.has_value());
  core::score_packet(res, payload, 132, core::Fec::kNone, m);
  EXPECT_EQ(m.packets_sent, 3u);
  EXPECT_EQ(m.packets_detected, 2u);
  EXPECT_EQ(m.bit_errors, 51u);
  EXPECT_EQ(m.bits_delivered, 100u + 98u);
  EXPECT_EQ(m.packets_ok, 1u);
  EXPECT_EQ(m.bits_crc_ok, 100u);
}

}  // namespace
