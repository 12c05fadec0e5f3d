// Multi-tag TDMA extension: slot sharing, fairness, and collisions.

#include <gtest/gtest.h>

#include "core/multi_tag.hpp"
#include "core/scenario.hpp"

namespace {

using namespace lscatter;

core::MultiTagConfig two_tags(std::size_t slots, std::size_t slot_a,
                              std::size_t slot_b) {
  core::MultiTagConfig cfg;
  core::ScenarioOptions opt;
  opt.seed = 71;
  cfg.base = core::make_scenario(core::Scene::kSmartHome, opt);
  cfg.base.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  cfg.n_slots = slots;
  cfg.tags.push_back({{3.0, 3.0, -1.0}, slot_a});
  cfg.tags.push_back({{4.0, 5.0, -1.0}, slot_b});
  return cfg;
}

TEST(MultiTag, SlottedTagsShareTheCellCleanly) {
  const auto cfg = two_tags(2, 0, 1);
  const auto res = core::run_multi_tag(cfg, 20);
  ASSERT_EQ(res.per_tag.size(), 2u);
  for (const auto& p : res.per_tag) {
    EXPECT_GT(p.metrics.packets_sent, 5u);
    EXPECT_EQ(p.metrics.packets_detected, p.metrics.packets_sent)
        << "tag " << p.tag_index;
    EXPECT_LT(p.metrics.ber(), 1e-3);
    // Each tag gets roughly half the single-tag rate.
    EXPECT_GT(p.metrics.throughput_bps(), 5.0e6);
    EXPECT_LT(p.metrics.throughput_bps(), 8.5e6);
  }
  // Aggregate stays near the single-tag ceiling.
  EXPECT_GT(res.aggregate_throughput_bps(), 11.5e6);
}

TEST(MultiTag, CollisionsShowCaptureEffect) {
  const auto cfg = two_tags(1, 0, 0);  // both tags in the only slot
  const auto res = core::run_multi_tag(cfg, 20);
  ASSERT_EQ(res.per_tag.size(), 2u);
  // Superposed scatters: the demodulator locks onto the stronger tag's
  // signal (capture); the weaker tag's packets are destroyed. With
  // random double-Rician gains at least one side must lose badly, and
  // the pair can never both run clean.
  const double ber0 = res.per_tag[0].metrics.ber();
  const double ber1 = res.per_tag[1].metrics.ber();
  EXPECT_GT(std::max(ber0, ber1), 0.03);
  EXPECT_LT(res.per_tag[0].metrics.packets_ok +
                res.per_tag[1].metrics.packets_ok,
            res.per_tag[0].metrics.packets_sent +
                res.per_tag[1].metrics.packets_sent);
  // Contrast: the slotted configuration in SlottedTagsShareTheCellCleanly
  // delivers everything.
}

TEST(MultiTag, TagsModulateTheShiftedWindowTheDemodulatorReads) {
  // A shifted modulation window moves the units on the tag and in the
  // demodulator alike; a tag left at the centered placement is sliced
  // 300 units off and decodes at chance.
  core::MultiTagConfig cfg;
  core::ScenarioOptions opt;
  opt.seed = 71;
  cfg.base = core::make_scenario(core::Scene::kSmartHome, opt);
  cfg.base.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  cfg.base.schedule.window_offset_units = 300;
  cfg.n_slots = 1;
  cfg.tags.push_back({{3.0, 3.0, -1.0}, 0});
  const auto res = core::run_multi_tag(cfg, 20);
  ASSERT_EQ(res.per_tag.size(), 1u);
  const core::LinkMetrics& m = res.per_tag[0].metrics;
  EXPECT_EQ(m.packets_sent, 18u);
  EXPECT_GT(2 * m.packets_ok, m.packets_sent);
  EXPECT_LT(m.ber(), 1e-3);
}

TEST(MultiTag, FourSlotsScaleFairly) {
  core::MultiTagConfig cfg;
  core::ScenarioOptions opt;
  opt.seed = 73;
  cfg.base = core::make_scenario(core::Scene::kSmartHome, opt);
  cfg.base.env.pathloss.shadowing_sigma_db = dsp::Db{0.0};
  cfg.n_slots = 4;
  for (std::size_t i = 0; i < 4; ++i) {
    cfg.tags.push_back({{3.0 + static_cast<double>(i), 3.0, -1.0}, i});
  }
  const auto res = core::run_multi_tag(cfg, 40);
  double min_t = 1e12;
  double max_t = 0.0;
  for (const auto& p : res.per_tag) {
    min_t = std::min(min_t, p.metrics.throughput_bps());
    max_t = std::max(max_t, p.metrics.throughput_bps());
  }
  EXPECT_GT(min_t, 1.0e6);
  // Fairness: within ~2x of each other (slot layout + sync subframes).
  EXPECT_LT(max_t / min_t, 2.0);
}

}  // namespace
