#include "channel/fading.hpp"

#include <cmath>

#include "core/contracts.hpp"
#include "dsp/db.hpp"
#include "obs/obs.hpp"

namespace lscatter::channel {

using dsp::cf32;
using dsp::cvec;

FadingProfile FadingProfile::flat() {
  FadingProfile p;
  p.n_taps = 1;
  p.rms_delay_spread_s = dsp::Seconds{0.0};
  p.los = true;
  p.rician_k_db = dsp::Db{60.0};  // essentially deterministic
  return p;
}

cf32 draw_flat_hop(const FadingProfile& profile, dsp::Rng& rng) {
  if (!profile.los) return rng.complex_normal(1.0);
  const double k = profile.rician_k_db.linear();
  return cf32{static_cast<float>(std::sqrt(k / (k + 1.0))), 0.0f} +
         rng.complex_normal(1.0 / (k + 1.0));
}

TdlChannel::TdlChannel(const FadingProfile& profile, dsp::Hz sample_rate,
                       dsp::Rng& rng) {
  LSCATTER_EXPECT(profile.n_taps >= 1, "a TDL channel needs >= 1 tap");
  LSCATTER_EXPECT(sample_rate.value() > 0.0,
                  "tap delays need a positive sample rate");
  const double ts = period(sample_rate).value();

  // Exponential PDP sampled at multiples of ~ half the delay spread; tap 0
  // at delay 0.
  const double tau = std::max(profile.rms_delay_spread_s.value(), 0.0);
  delays_.resize(profile.n_taps);
  std::vector<double> powers(profile.n_taps);
  double total = 0.0;
  for (std::size_t i = 0; i < profile.n_taps; ++i) {
    const double delay_s =
        (profile.n_taps == 1 || tau == 0.0)
            ? 0.0
            : static_cast<double>(i) * (2.0 * tau /
                                        static_cast<double>(profile.n_taps));
    delays_[i] = static_cast<std::size_t>(std::llround(delay_s / ts));
    powers[i] = (tau == 0.0 && i > 0)
                    ? 0.0
                    : std::exp(-delay_s / std::max(tau, 1e-12));
    if (profile.n_taps == 1) powers[i] = 1.0;
    total += powers[i];
  }
  for (auto& p : powers) p /= total;

  gains_.resize(profile.n_taps);
  for (std::size_t i = 0; i < profile.n_taps; ++i) {
    if (i == 0 && profile.los) {
      // Rician: deterministic LoS component + diffuse part.
      const double k = profile.rician_k_db.linear();
      const double los_amp = std::sqrt(powers[0] * k / (k + 1.0));
      const cf32 diffuse = rng.complex_normal(powers[0] / (k + 1.0));
      gains_[i] = cf32{static_cast<float>(los_amp), 0.0f} + diffuse;
    } else {
      gains_[i] = rng.complex_normal(powers[i]);
    }
  }
}

cvec TdlChannel::apply(std::span<const cf32> x) const {
  LSCATTER_OBS_TIMER("channel.fading.tdl_apply");
  LSCATTER_OBS_COUNTER_ADD("channel.fading.samples", x.size());
  cvec out(x.size(), cf32{});
  for (std::size_t t = 0; t < gains_.size(); ++t) {
    const std::size_t d = delays_[t];
    const cf32 g = gains_[t];
    if (g == cf32{}) continue;
    for (std::size_t n = d; n < x.size(); ++n) {
      out[n] += g * x[n - d];
    }
  }
  return out;
}

cvec TdlChannel::frequency_response(std::size_t n_bins) const {
  cvec h(n_bins, cf32{});
  for (std::size_t k = 0; k < n_bins; ++k) {
    cf32 acc{};
    for (std::size_t t = 0; t < gains_.size(); ++t) {
      const double ang = -dsp::kTwoPi * static_cast<double>(k) *
                         static_cast<double>(delays_[t]) /
                         static_cast<double>(n_bins);
      acc += gains_[t] * cf32{static_cast<float>(std::cos(ang)),
                              static_cast<float>(std::sin(ang))};
    }
    h[k] = acc;
  }
  return h;
}

double TdlChannel::power_gain() const {
  double p = 0.0;
  for (const cf32 g : gains_) p += std::norm(g);
  return p;
}

}  // namespace lscatter::channel
