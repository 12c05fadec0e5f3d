#include "core/multi_tag.hpp"

#include <cmath>

#include "channel/awgn.hpp"
#include "core/contracts.hpp"
#include "dsp/db.hpp"
#include "obs/obs.hpp"
#if LSCATTER_OBS_ENABLED
#include "obs/family.hpp"
#endif
#include "tag/modulator.hpp"

namespace lscatter::core {

using dsp::cf32;
using dsp::cvec;

namespace {

struct TagState {
  tag::TagController controller;
  cf32 gain;
  double sync_error_s = 0.0;
  // Per-packet bookkeeping for the packet being transmitted: its on-air
  // size and payload.
  std::size_t coded_bits = 0;
  std::vector<std::uint8_t> payload;
  std::vector<std::vector<std::uint8_t>> symbol_payloads;
};

}  // namespace

MultiTagResult run_multi_tag(const MultiTagConfig& config,
                             std::size_t n_subframes) {
  LSCATTER_EXPECT(!config.tags.empty(), "multi-tag run needs tags");
  LSCATTER_EXPECT(config.n_slots >= 1, "TDMA needs at least one slot");
  LSCATTER_OBS_SPAN("core.multi_tag.run");
  LSCATTER_OBS_COUNTER_ADD("core.multi_tag.tags", config.tags.size());
  LSCATTER_OBS_COUNTER_ADD("core.multi_tag.subframes", n_subframes);

  const LinkConfig& base = config.base;
  const auto& cell = base.enodeb.cell;
  lte::Enodeb enodeb(base.enodeb);
  LscatterDemodulator demod(cell, base.schedule, base.search);

  dsp::Rng rng(base.seed, 0x3713371337ULL);
  dsp::Rng noise_rng = rng.fork();
  dsp::Rng payload_rng = rng.fork();

  // Per-tag radio state: budget from each tag's geometry, one drop.
  std::vector<TagState> tags;
  tags.reserve(config.tags.size());
  double worst_noise_mw = 0.0;
  for (const auto& t : config.tags) {
    const dsp::Hz f{cell.carrier_hz};
    const dsp::Db pl1 = base.env.pathloss.sample_db(
        dsp::feet_to_meters(t.geometry.enb_tag_ft), f, rng);
    const dsp::Db pl2 = base.env.pathloss.sample_db(
        dsp::feet_to_meters(t.geometry.tag_ue_ft), f, rng);
    const dsp::Dbm rx_dbm =
        base.env.budget.backscatter_rx_dbm(pl1, pl2);
    const double phase = rng.uniform(0.0, dsp::kTwoPi);
    const double amp = channel::amplitude(rx_dbm);
    TagState st{tag::TagController(cell, base.schedule),
                channel::draw_flat_hop(base.env.fading, rng) *
                    channel::draw_flat_hop(base.env.fading, rng) *
                    cf32{static_cast<float>(amp * std::cos(phase)),
                         static_cast<float>(amp * std::sin(phase))},
                base.sync.sample_error_s(rng),
                0,
                {},
                {}};
    tags.push_back(std::move(st));

    const dsp::Db pl_direct = base.env.pathloss.sample_db(
        dsp::feet_to_meters(t.geometry.direct_ft()), f, rng);
    const dsp::Hz occupied =
        static_cast<double>(cell.n_subcarriers()) *
        dsp::Hz{lte::kSubcarrierSpacingHz};
    const double noise_mw =
        dsp::to_mw(channel::noise_floor_dbm(
            occupied, base.env.budget.noise_figure_db)) +
        dsp::to_mw(base.env.budget.direct_rx_dbm(pl_direct) -
                   base.env.acir_db);
    worst_noise_mw = std::max(worst_noise_mw, noise_mw);
  }

  MultiTagResult result;
  result.per_tag.resize(config.tags.size());
  for (std::size_t i = 0; i < config.tags.size(); ++i) {
    result.per_tag[i].tag_index = i;
    result.per_tag[i].metrics.elapsed_s =
        static_cast<double>(n_subframes) * 1e-3;
  }

#if LSCATTER_OBS_ENABLED
  // Per-entity accounting as labeled families (DESIGN.md §12): decode
  // outcomes broken out per tag, collisions per TDMA slot. Cells are
  // resolved here, once, before the subframe loop — cell() takes the
  // family mutex, so per-iteration lookups are banned (lscatter-lint
  // obs-loop) — and hit through the cached pointers below. Beyond the
  // family's cardinality cap, extra tags share the {tag=__other__}
  // overflow cell and obs.labels.dropped counts them.
  static obs::CounterFamily mt_ok("core.multi_tag.packets_ok", "tag");
  static obs::CounterFamily mt_err("core.multi_tag.bit_errors", "tag");
  static obs::CounterFamily mt_coll("core.multi_tag.collisions", "slot");
  std::vector<obs::Counter*> tag_ok_cells;
  std::vector<obs::Counter*> tag_err_cells;
  tag_ok_cells.reserve(config.tags.size());
  tag_err_cells.reserve(config.tags.size());
  for (std::size_t i = 0; i < config.tags.size(); ++i) {
    tag_ok_cells.push_back(&mt_ok.cell(std::uint64_t{i}));
    tag_err_cells.push_back(&mt_err.cell(std::uint64_t{i}));
  }
  std::vector<obs::Counter*> slot_cells;
  slot_cells.reserve(config.n_slots);
  for (std::size_t s = 0; s < config.n_slots; ++s) {
    slot_cells.push_back(&mt_coll.cell(std::uint64_t{s}));
  }
#endif

  const std::size_t sf_samples = cell.samples_per_subframe();
  for (std::size_t sf = 0; sf < n_subframes; ++sf) {
    const lte::SubframeTx tx = enodeb.next_subframe();
    const std::size_t slot = sf % config.n_slots;

    // Tags outside their slot switch to the absorbing impedance state
    // (a tag reflecting even unmodulated filler would plant a constant
    // term in everyone else's conjugate products and flip their '0'
    // decisions). Tags sharing a slot scatter simultaneously — the
    // collision case.
    cvec rx(sf_samples, cf32{});
    std::vector<std::size_t> active;
    for (std::size_t i = 0; i < config.tags.size(); ++i) {
      TagState& st = tags[i];
      if (config.tags[i].slot != slot) continue;  // absorbing
      if (st.controller.is_listening_subframe(sf)) continue;
      const std::size_t cap = st.controller.packet_raw_bits(sf);
      if (cap <= 32) continue;

      const PacketCodec codec(cap);
      st.coded_bits = cap;
      st.payload = payload_rng.bits(codec.payload_bits());
      st.symbol_payloads = split_bits(codec.encode(st.payload),
                                      st.controller.bits_per_symbol());
      const auto plan =
          st.controller.plan_subframe(sf, true, st.symbol_payloads);
      active.push_back(i);

      const auto pattern = tag::expand_to_units(
          cell, plan, base.schedule.window_offset_units);
      const auto err_units = static_cast<std::ptrdiff_t>(
          std::llround(st.sync_error_s * cell.sample_rate_hz()));
      const cvec scat =
          tag::apply_pattern(tx.samples, pattern, err_units, st.gain);
      for (std::size_t n = 0; n < sf_samples; ++n) rx[n] += scat[n];
    }
    if (active.size() > 1) {
      LSCATTER_OBS_COUNTER_INC("core.multi_tag.collision_subframes");
#if LSCATTER_OBS_ENABLED
      slot_cells[slot]->add(1);
#endif
    }
    channel::add_awgn(rx, worst_noise_mw, noise_rng);
    if (active.empty()) continue;

    // One decode of the superposition; each active tag's packet is
    // scored against it (colliding tags share the same decoded bits).
    const PacketDemodResult res = demod.demodulate_packet(rx, tx.samples, sf);
    for (const std::size_t i : active) {
      LinkMetrics& m = result.per_tag[i].metrics;
#if LSCATTER_OBS_ENABLED
      const LinkMetrics before = m;
#endif
      score_packet(res, tags[i].payload, tags[i].coded_bits, Fec::kNone, m);
#if LSCATTER_OBS_ENABLED
      tag_err_cells[i]->add(m.bit_errors - before.bit_errors);
      tag_ok_cells[i]->add(m.packets_ok - before.packets_ok);
#endif
    }
  }
  return result;
}

}  // namespace lscatter::core
