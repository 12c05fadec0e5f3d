#include "scene.hpp"

#include <cmath>
#include <stdexcept>

#include "channel/awgn.hpp"
#include "channel/link_budget.hpp"
#include "core/framing.hpp"
#include "tag/modulator.hpp"

namespace perfbench {

using namespace lscatter;
using dsp::cf32;

namespace {
constexpr std::size_t kNoiseTableSize = std::size_t{1} << 16;  // > 1 subframe
}  // namespace

SceneSource::SceneSource(const core::LinkConfig& config, double idle_share,
                         std::uint64_t seed, NoiseModel noise)
    : config_(config),
      idle_share_(idle_share),
      noise_(noise),
      enodeb_(config.enodeb),
      controller_(config.enodeb.cell, config.schedule),
      noise_rng_(dsp::derive_seed(seed, 1)),
      sync_rng_(dsp::derive_seed(seed, 2)),
      payload_rng_(dsp::derive_seed(seed, 3)) {
  if (config.schedule.packet_subframes != 1 ||
      config.env.frequency_selective || config.env.ue_cfo_hz.value() != 0.0 ||
      config.fec != core::Fec::kNone) {
    throw std::invalid_argument(
        "SceneSource models one-subframe uncoded packets over a flat, "
        "CFO-free channel (the scenario defaults)");
  }
  redraw(seed);
  if (noise_ == NoiseModel::kTable) {
    noise_table_.resize(kNoiseTableSize);
    for (cf32& v : noise_table_) v = noise_rng_.complex_normal(1.0);
  }
}

// Per-drop radio draw, as LinkSimulator::draw_drop does it.
void SceneSource::redraw(std::uint64_t seed) {
  dsp::Rng drop_rng(dsp::derive_seed(seed, 0));
  const auto& env = config_.env;
  const auto& geo = config_.geometry;
  const auto& cell = config_.enodeb.cell;
  const dsp::Hz f{cell.carrier_hz};
  const dsp::Db pl1 =
      env.pathloss.sample_db(dsp::feet_to_meters(geo.enb_tag_ft), f, drop_rng);
  const dsp::Db pl2 =
      env.pathloss.sample_db(dsp::feet_to_meters(geo.tag_ue_ft), f, drop_rng);
  const dsp::Db pl_direct = env.pathloss.sample_db(
      dsp::feet_to_meters(geo.direct_ft()), f, drop_rng);
  const dsp::Dbm backscatter_dbm = env.budget.backscatter_rx_dbm(pl1, pl2);
  const dsp::Dbm direct_dbm = env.budget.direct_rx_dbm(pl_direct);

  const dsp::Hz occupied = static_cast<double>(cell.n_subcarriers()) *
                           dsp::Hz{lte::kSubcarrierSpacingHz};
  thermal_mw_ = dsp::to_mw(
      channel::noise_floor_dbm(occupied, env.budget.noise_figure_db));
  noise_mw_ = thermal_mw_ + dsp::to_mw(direct_dbm - env.acir_db);

  const auto draw_scalar = [&](bool los) -> cf32 {
    if (!los) return drop_rng.complex_normal(1.0);
    const double k = env.fading.rician_k_db.linear();
    const double los_amp = std::sqrt(k / (k + 1.0));
    return cf32{static_cast<float>(los_amp), 0.0f} +
           drop_rng.complex_normal(1.0 / (k + 1.0));
  };
  const cf32 fade = draw_scalar(env.fading.los) * draw_scalar(env.fading.los);
  snr_db_ = (backscatter_dbm - dsp::from_mw(noise_mw_)).value() +
            10.0 * std::log10(std::norm(fade));
  const cf32 direct_fade = draw_scalar(env.fading.los);

  const double amp_bs = channel::amplitude(backscatter_dbm);
  const double tag_phase = drop_rng.uniform(0.0, dsp::kTwoPi);
  gain_ = fade * cf32{static_cast<float>(amp_bs * std::cos(tag_phase)),
                      static_cast<float>(amp_bs * std::sin(tag_phase))};
  direct_gain_ =
      direct_fade * static_cast<float>(channel::amplitude(direct_dbm));
  sync_error_s_ = config_.sync.sample_error_s(drop_rng);
  since_resync_s_ = 0.0;
}

void SceneSource::add_noise(std::span<cf32> x, double noise_mw,
                            Tracer& tracer) {
  const auto t0 = Clock::now();
  if (noise_ == NoiseModel::kAwgn) {
    channel::add_awgn(x, noise_mw, noise_rng_);
  } else {
    const auto sigma = static_cast<float>(std::sqrt(noise_mw));
    std::size_t at = noise_rng_.uniform_int(kNoiseTableSize);
    for (cf32& v : x) {
      v += sigma * noise_table_[at];
      at = (at + 1) & (kNoiseTableSize - 1);
    }
  }
  tracer.record("channel.awgn", t0, Clock::now());
}

SlotTruth SceneSource::generate(std::size_t index, dsp::cvec& backscatter,
                                dsp::cvec* original, dsp::cvec* genie,
                                Tracer& tracer) {
  const auto& cell = config_.enodeb.cell;
  SlotTruth truth;
  const std::size_t capacity = controller_.packet_raw_bits(index);
  truth.packet_slot = capacity > 32;

  // The tag re-syncs on its listening subframes; the error drifts between.
  if (controller_.is_listening_subframe(index)) {
    sync_error_s_ = config_.sync.sample_error_s(sync_rng_);
    since_resync_s_ = 0.0;
  }
  const double err_now =
      config_.sync.drifted_error_s(sync_error_s_, since_resync_s_);
  since_resync_s_ += 1e-3;

  const bool idle = payload_rng_.uniform() < idle_share_;
  tag::SubframePlan plan;
  if (truth.packet_slot && !idle) {
    const core::PacketCodec codec(capacity);
    truth.payload = payload_rng_.bits(codec.payload_bits());
    plan = controller_.plan_subframe(
        index, true,
        core::split_bits(codec.encode(*truth.payload),
                         controller_.bits_per_symbol()));
  } else {
    plan = controller_.plan_subframe(index, false, {});
  }

  auto t0 = Clock::now();
  const lte::SubframeTx tx = enodeb_.make_subframe(index);
  auto t1 = Clock::now();
  tracer.record("lte.enodeb", t0, t1);

  const auto pattern =
      tag::expand_to_units(cell, plan, config_.schedule.window_offset_units);
  const auto err_units = static_cast<std::ptrdiff_t>(
      std::llround(err_now * cell.sample_rate_hz()));
  t0 = Clock::now();
  dsp::cvec scattered =
      tag::apply_pattern(tx.samples, pattern, err_units, gain_);
  t1 = Clock::now();
  tracer.record("tag.apply_pattern", t0, t1);

  add_noise(scattered, noise_mw_, tracer);
  backscatter.insert(backscatter.end(), scattered.begin(), scattered.end());

  if (original != nullptr) {
    const std::size_t base = original->size();
    original->resize(base + tx.samples.size());
    for (std::size_t n = 0; n < tx.samples.size(); ++n) {
      (*original)[base + n] = direct_gain_ * tx.samples[n];
    }
    add_noise(std::span<cf32>(original->data() + base, tx.samples.size()),
              thermal_mw_, tracer);
  }
  if (genie != nullptr) {
    genie->insert(genie->end(), tx.samples.begin(), tx.samples.end());
  }
  return truth;
}

}  // namespace perfbench
