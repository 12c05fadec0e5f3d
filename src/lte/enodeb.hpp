#pragma once
// eNodeB downlink transmitter: builds subframes (sync signals + CRS +
// CRC-protected transport blocks on the data REs) and OFDM-modulates them.
//
// This is the simulation stand-in for the paper's USRP B210 running srsLTE:
// the tag and UE only ever see the emitted waveform, whose structure this
// class reproduces (continuous occupancy, PSS every 5 ms, CRS lattice,
// QAM-filled PDSCH).

#include <cstdint>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/units.hpp"
#include "lte/cell_config.hpp"
#include "lte/ofdm.hpp"
#include "lte/pdcch.hpp"
#include "lte/qam.hpp"
#include "lte/resource_grid.hpp"

namespace lscatter::lte {

/// Everything the eNodeB emitted for one subframe. The grid and payload are
/// kept so tests and the UE-side "genie" mode can compare against truth.
struct SubframeTx {
  std::size_t subframe_index = 0;  // running counter; %10 = position in frame
  ResourceGrid grid;
  dsp::cvec samples;                        // unit mean power
  std::vector<std::uint8_t> payload_bits;   // transport block before CRC
  Dci dci;                                  // the scheduling announced
};

class Enodeb {
 public:
  struct Config {
    CellConfig cell;
    Modulation modulation = Modulation::kQam16;
    dsp::Dbm tx_power_dbm{10.0};  // paper: USRP default 10 dBm, PA 40 dBm

    /// Power boost applied to PSS/SSS REs (linear amplitude derived from
    /// this dB figure). Real deployments boost sync signals; this is also
    /// what gives the tag's envelope detector its contrast.
    dsp::Db sync_boost_db{6.0};

    /// Probability that the central 6 RBs carry PDSCH in any given data
    /// symbol. Models scheduler behaviour; < 1 increases the PSS contrast
    /// seen by the tag's narrowband envelope detector.
    double center_rb_activity = 0.25;

    /// Broadcast the MIB on PBCH in subframe 0 of every frame.
    bool enable_pbch = true;

    /// Announce each subframe's scheduling (center-RB mask + MCS) on the
    /// PDCCH-lite control region in symbol 0.
    bool enable_pdcch = true;

    std::uint64_t seed = 1;
  };

  explicit Enodeb(const Config& config);

  /// Generate the next subframe and advance the internal counter.
  SubframeTx next_subframe();

  /// Generate a specific subframe index without advancing internal state
  /// (payload is still drawn from the internal RNG).
  SubframeTx make_subframe(std::size_t subframe_index);

  const CellConfig& cell() const { return config_.cell; }
  const Config& config() const { return config_; }

 private:
  Config config_;
  OfdmModulator modulator_;
  dsp::Rng rng_;
  std::size_t next_index_ = 0;
};

}  // namespace lscatter::lte
