#include "channel/awgn.hpp"

#include "dsp/db.hpp"
#include "obs/obs.hpp"

namespace lscatter::channel {

void add_awgn(std::span<dsp::cf32> x, double noise_power, dsp::Rng& rng) {
  if (noise_power <= 0.0) return;
  LSCATTER_OBS_TIMER("channel.awgn.add");
  LSCATTER_OBS_COUNTER_ADD("channel.awgn.samples", x.size());
  rng.add_complex_normal(x, noise_power);
}

void add_awgn_snr(std::span<dsp::cf32> x, dsp::Db snr, dsp::Rng& rng) {
  const double sig = dsp::mean_power(x);
  add_awgn(x, sig / snr.linear(), rng);
}

}  // namespace lscatter::channel
