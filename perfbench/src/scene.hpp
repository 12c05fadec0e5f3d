#pragma once
// Seeded IQ source for the benchmark: one LScatter link (eNodeB -> tag ->
// UE) at a scenario's link budget, generated one subframe at a time.
//
// It mirrors LinkSimulator::run's per-drop radio model — path loss and
// shadowing, a double-hop Rician fade, thermal noise plus the original
// band's adjacent-channel residue, and the tag's residual sync error with
// a listening subframe per resync period — but hands the two receive
// bands out as plain sample streams, so the UE under test sees only IQ:
//
//   backscatter band  tag-scattered signal + noise (what feed() decodes)
//   original band     direct eNodeB -> UE path + thermal noise (what
//                     reconstruct_blind() rebuilds the ambient from)
//
// The tag sends a fresh random payload on every packet slot except a
// seed-chosen share of idle slots, and the source reports what was sent
// so the benchmark can score every packet event. Scene calls are timed
// into the tracer as `lte.enodeb`, `tag.apply_pattern` and `channel.awgn`.
//
// Noise: NoiseModel::kAwgn calls channel::add_awgn, the scene function the
// Monte-Carlo sweep runs (Box-Muller per sample, ~75 ns). kTable adds
// windows of a seeded table of complex normals at a random offset per
// subframe: the same per-sample statistics at memory speed, so the UE
// workloads spend their run in the receiver, not in building its input.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/link_simulator.hpp"
#include "dsp/rng.hpp"
#include "lte/enodeb.hpp"
#include "tag/tag_controller.hpp"
#include "tracer.hpp"

namespace perfbench {

/// What the tag did in one subframe.
struct SlotTruth {
  /// True when the receiver carves a packet here (capacity > 32 bits);
  /// it then emits exactly one packet event for the slot.
  bool packet_slot = false;
  /// The payload the tag sent; nullopt on listening and idle slots.
  std::optional<std::vector<std::uint8_t>> payload;
};

enum class NoiseModel { kAwgn, kTable };

class SceneSource {
 public:
  /// `idle_share`: probability that the tag skips a packet slot.
  SceneSource(const lscatter::core::LinkConfig& config, double idle_share,
              std::uint64_t seed, NoiseModel noise);

  /// Generate subframe `index` (eNodeB running index: index % 10 is the
  /// position in the frame, index / 10 the SFN) and append it to the
  /// output streams that are non-null. `genie` receives the eNodeB's
  /// transmitted samples (the record-and-playback ambient).
  SlotTruth generate(std::size_t index, lscatter::dsp::cvec& backscatter,
                     lscatter::dsp::cvec* original, lscatter::dsp::cvec* genie,
                     Tracer& tracer);

  /// Draw a new radio state (path loss with shadowing, double-hop fade,
  /// tag phase and sync error) from `seed`, as a new drop would; the
  /// eNodeB, tag schedule and noise source carry on.
  void redraw(std::uint64_t seed);

  /// Backscatter SNR of the current radio state, fade included [dB].
  double snr_db() const { return snr_db_; }

 private:
  void add_noise(std::span<lscatter::dsp::cf32> x, double noise_mw,
                 Tracer& tracer);

  lscatter::core::LinkConfig config_;
  double idle_share_;
  NoiseModel noise_;
  lscatter::dsp::cvec noise_table_;  // unit-power normals (kTable only)
  lscatter::lte::Enodeb enodeb_;
  lscatter::tag::TagController controller_;
  lscatter::dsp::Rng noise_rng_;
  lscatter::dsp::Rng sync_rng_;
  lscatter::dsp::Rng payload_rng_;
  lscatter::dsp::cf32 gain_;         // backscatter amplitude x fade x phase
  lscatter::dsp::cf32 direct_gain_;  // original-band amplitude x fade
  double noise_mw_ = 0.0;            // backscatter band: thermal + ACIR
  double thermal_mw_ = 0.0;          // original band: thermal only
  double snr_db_ = 0.0;
  double sync_error_s_ = 0.0;
  double since_resync_s_ = 0.0;
};

}  // namespace perfbench
