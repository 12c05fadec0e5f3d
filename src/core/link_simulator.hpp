#pragma once
// End-to-end LScatter link simulation:
//
//   Enodeb -> (path loss + fading) -> TagController/modulator
//          -> (path loss + fading) -> + noise & adjacent-channel leak
//          -> LscatterDemodulator -> LinkMetrics
//
// The backscatter double-hop is modelled as a per-drop scalar complex gain
// (product of two independent Rician/Rayleigh fades) on top of the
// deterministic link budget; DESIGN.md §2 explains why this preserves the
// figures' shapes. The tag's residual synchronization error comes from
// StatisticalSync (fast mode, default) or can be injected explicitly.

#include <optional>

#include "channel/fading.hpp"
#include "channel/link_budget.hpp"
#include "core/ambient_reconstructor.hpp"
#include "core/lscatter_rx.hpp"
#include "core/metrics.hpp"
#include "lte/enodeb.hpp"
#include "tag/sync_detector.hpp"
#include "tag/tag_controller.hpp"

namespace lscatter::core {

struct LinkGeometry {
  double enb_tag_ft = 3.0;
  double tag_ue_ft = 3.0;

  /// Direct eNodeB->UE distance; <= 0 derives it as enb_tag + tag_ue.
  double enb_ue_ft = -1.0;

  double direct_ft() const {
    return enb_ue_ft > 0.0 ? enb_ue_ft : enb_tag_ft + tag_ue_ft;
  }
};

struct RadioEnvironment {
  channel::PathLossModel pathloss;      // shared by all three links
  channel::FadingProfile fading;        // per-hop small-scale model
  channel::LinkBudget budget;           // powers, gains, NF, tag RF

  /// Adjacent-channel rejection of the original LTE band at the UE's
  /// shifted-carrier receiver; its residue raises the noise floor.
  dsp::Db acir_db{45.0};

  /// Residual carrier frequency offset between the eNodeB and the UE's
  /// shifted-carrier receiver. The tag adds none (it has no carrier,
  /// only the switch clock, whose offset appears as timing drift). The
  /// demodulator's per-symbol gain re-estimation absorbs CFOs up to
  /// ~1 kHz; see the robustness tests.
  dsp::Hz ue_cfo_hz{0.0};

  /// When true, the tag->UE hop convolves the scattered signal with an
  /// actual tapped-delay-line realization of `fading` instead of the flat
  /// per-drop scalar (DESIGN.md §4). The per-unit demodulator does not
  /// equalize across units, so this measures the real ISI penalty of the
  /// flat-fading substitution — see the ablation bench.
  bool frequency_selective = false;
};

struct LinkConfig {
  lte::Enodeb::Config enodeb;
  tag::TagScheduleConfig schedule;
  tag::StatisticalSync sync;
  OffsetSearch search;
  RadioEnvironment env;
  LinkGeometry geometry;

  /// How the UE obtains the ambient baseband for the conjugate products:
  /// genie (record-and-playback, the paper's evaluation mode) or
  /// reconstructed from its own original-band receive chain.
  AmbientSource ambient = AmbientSource::kGenie;

  /// Packet FEC: none (the paper's uncoded units) or the rate-1/2
  /// convolutional code with soft Viterbi decoding.
  Fec fec = Fec::kNone;

  std::uint64_t seed = 42;
};

/// Static per-drop radio state (for diagnostics / tests).
struct DropState {
  dsp::Db pl1_db{0.0};           // eNB -> tag
  dsp::Db pl2_db{0.0};           // tag -> UE
  dsp::Dbm backscatter_rx_dbm{0.0};
  dsp::Dbm direct_rx_dbm{0.0};   // eNB -> UE (original band)
  dsp::Dbm noise_dbm{0.0};       // thermal + ACIR residue
  dsp::Db mean_snr_db{0.0};      // average over the fade
  dsp::cf32 fade;                // chi1 * chi2 (unit mean power)
  dsp::cf32 direct_fade;         // single-hop fade of the direct path

  /// Reconstruction diagnostics (kReconstructed only).
  std::size_t ambient_re_errors = 0;
  std::size_t ambient_re_total = 0;
};

/// Score one sent packet into `m` against the `payload` it carried,
/// sent as `coded_bits` on-air units with `fec`. The packet and its bits
/// count as sent. A missed preamble costs chance-level bit errors (half
/// the payload). Otherwise BER is taken over the decoded payload bits
/// (dewhitened, or FEC-decoded from the soft bits), `bits_delivered`
/// gains the chance-corrected max(0, correct - wrong), and a CRC-clean
/// packet that reproduces `payload` counts toward packets_ok/bits_crc_ok.
void score_packet(const PacketDemodResult& res,
                  const std::vector<std::uint8_t>& payload,
                  std::size_t coded_bits, Fec fec, LinkMetrics& m);

class LinkSimulator {
 public:
  explicit LinkSimulator(const LinkConfig& config);

  /// Simulate `n_subframes` (1 ms each) as one drop: path loss shadowing
  /// and fading are drawn once, the tag re-syncs on its schedule, every
  /// packet is demodulated and scored against the transmitted payload.
  LinkMetrics run(std::size_t n_subframes);

  /// Radio state of the most recent run().
  const DropState& last_drop() const { return drop_; }

  const LinkConfig& config() const { return config_; }

  /// PHY raw bit rate the schedule supports (long-run average, bit/s) —
  /// the §4.3 "13.63 Mbps at 20 MHz" headline number.
  double scheduled_phy_rate_bps() const;

 private:
  void draw_drop(dsp::Rng& rng);

  LinkConfig config_;
  lte::Enodeb enodeb_;
  tag::TagController controller_;
  LscatterDemodulator demodulator_;
  AmbientReconstructor reconstructor_;
  DropState drop_;
  dsp::Rng rng_;
  double cfo_phase_ = 0.0;
};

}  // namespace lscatter::core
