#pragma once
// UE downlink receiver: OFDM demodulation, CRS-based least-squares channel
// estimation with frequency interpolation, zero-forcing equalization, QAM
// demapping, and transport-block CRC check.
//
// The receiver is an *evaluation* receiver: it is handed the transmitted
// SubframeTx so it knows the RE layout (in real LTE the PDCCH carries
// that) and so it can count bit errors against the true payload.

#include "dsp/types.hpp"
#include "lte/cell_config.hpp"
#include "lte/enodeb.hpp"
#include "lte/ofdm.hpp"

namespace lscatter::lte {

struct SubframeRxResult {
  bool crc_ok = false;          // every code block passed
  std::size_t blocks_total = 0;
  std::size_t blocks_ok = 0;
  std::size_t bits_delivered = 0;  // info bits in CRC-clean blocks
  std::size_t bit_errors = 0;
  std::size_t n_bits = 0;
  double evm_rms = 0.0;

  double ber() const {
    return n_bits == 0 ? 0.0
                       : static_cast<double>(bit_errors) /
                             static_cast<double>(n_bits);
  }
};

/// Per-subcarrier channel estimate for one subframe.
struct ChannelEstimate {
  dsp::cvec h;  // size = n_subcarriers
};

class UeReceiver {
 public:
  explicit UeReceiver(const CellConfig& cfg);

  /// FFT the whole subframe (samples start at the subframe boundary)
  /// into a caller-owned grid built for the same CellConfig.
  void demodulate_grid_into(std::span<const dsp::cf32> samples,
                            ResourceGrid& grid) const;

  /// Least-squares CRS channel estimate, linearly interpolated across
  /// frequency, averaged over the subframe's four CRS symbols, into
  /// `est` (its storage is reused; no allocation once it has held one
  /// estimate for this cell).
  void estimate_channel_into(const ResourceGrid& rx_grid,
                             std::size_t subframe_index,
                             ChannelEstimate& est) const;

  /// Full receive chain for one subframe.
  SubframeRxResult receive_subframe(std::span<const dsp::cf32> samples,
                                    const SubframeTx& truth,
                                    Modulation modulation) const;

  const CellConfig& cell() const { return cfg_; }

 private:
  CellConfig cfg_;
  OfdmDemodulator demod_;
};

}  // namespace lscatter::lte
