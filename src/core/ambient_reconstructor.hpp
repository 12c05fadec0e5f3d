#pragma once
// Reconstruction of the ambient baseband x_n at the UE (paper §3.3).
//
// The backscatter demodulator needs the ambient LTE waveform to form the
// products z_n = r_n conj(x_n). Two sources are supported:
//
//   * genie — use the eNodeB's transmitted samples directly. This matches
//     the paper's record-and-playback evaluation, where the excitation is
//     known bit-exactly.
//   * reconstructed — the realistic path: the UE demodulates the original
//     band it receives on its main antenna, hard-decides every resource
//     element (data REs via the QAM slicer; CRS/PSS/SSS are known
//     sequences), and re-synthesizes the time-domain waveform with the
//     OFDM modulator. Decision errors on the original band turn into
//     localized mismatches in x̂_n.
//
// The reconstructor needs the RE-type map (which REs are data / pilots /
// sync) — in real LTE that comes from the PDCCH; here it comes from the
// transmitted grid, as DESIGN.md §6 documents.
//
// Hot-path memory discipline (DESIGN.md §10): the reconstructor owns its
// working set (grids, channel estimate, per-symbol slice buffers), sized
// on the first call, so reconstruct_blind_into() performs zero heap
// allocations after one warm call. Like StreamingReceiver it is
// single-owner: all calls must come from one thread (checked while
// contracts are enabled).

#include <cstdint>
#include <optional>
#include <vector>

#include "core/thread_safety.hpp"
#include "dsp/units.hpp"
#include "lte/enodeb.hpp"
#include "lte/ofdm.hpp"
#include "lte/ue_rx.hpp"

namespace lscatter::core {

enum class AmbientSource : std::uint8_t {
  kGenie,          // perfect knowledge (record-and-playback)
  kReconstructed,  // decode-and-regenerate; RE layout from the TX grid
  kBlind,          // decode-and-regenerate; RE layout from the decoded
                   // PDCCH-lite DCI — no genie inputs at all
};

struct ReconstructionResult {
  dsp::cvec samples;           // re-synthesized subframe, unit power scale
  std::size_t re_errors = 0;   // data REs whose hard decision was wrong
  std::size_t re_total = 0;
};

class AmbientReconstructor {
 public:
  explicit AmbientReconstructor(const lte::CellConfig& cell);

  /// Rebuild the ambient waveform from the UE's original-band samples
  /// (one subframe, aligned to the subframe boundary, any amplitude).
  /// `truth` supplies the RE-type map and the reference for re_errors.
  ReconstructionResult reconstruct(std::span<const dsp::cf32> rx_direct,
                                   const lte::SubframeTx& truth,
                                   lte::Modulation modulation);

  /// Fully blind variant: no genie inputs at all. The UE decodes the
  /// PDCCH-lite DCI from its own grid, regenerates PSS/SSS/CRS/PBCH/PDCCH
  /// from the cell identity + frame position (their mappers tag every
  /// known RE, which with the DCI's center-RB gaps gives the complete
  /// RE-type map), and hard-decides the data REs with the MCS the DCI
  /// announced. Returns nullopt when the DCI CRC fails. `sync_boost_db`
  /// must match the eNodeB's PSS/SSS boost (a static deployment
  /// parameter).
  std::optional<ReconstructionResult> reconstruct_blind(
      std::span<const dsp::cf32> rx_direct, std::size_t subframe_index,
      bool pbch_enabled = true, dsp::Db sync_boost_db = dsp::Db{6.0});

  /// Same, writing the rebuilt subframe into `out` (exactly
  /// samples_per_subframe() samples). Returns the number of data REs
  /// sliced, or nullopt — leaving `out` untouched — when the DCI CRC
  /// fails. Allocation-free after the first call.
  std::optional<std::size_t> reconstruct_blind_into(
      std::span<const dsp::cf32> rx_direct, std::size_t subframe_index,
      bool pbch_enabled, dsp::Db sync_boost_db, std::span<dsp::cf32> out);

 private:
  /// The working set, sized on the first call rather than at
  /// construction: LinkSimulator builds a reconstructor per drop even
  /// when the genie ambient never calls it.
  struct Work {
    explicit Work(const lte::CellConfig& cell);
    lte::ResourceGrid rx;       // the original band, demodulated
    lte::ResourceGrid rebuilt;  // regenerated values + their RE types
    lte::ChannelEstimate est;
    std::vector<std::uint16_t> data_k;  // one symbol's data subcarriers
    dsp::cvec slice;                    // their equalized values/decisions
    std::vector<std::uint8_t> bits;     // their hard-decided bits
  };

  /// Demodulate and channel-estimate one subframe into the working set.
  Work& prepare(std::span<const dsp::cf32> rx_direct,
                std::size_t subframe_index);

  /// Hard-decide every data RE — kData in `layout`, minus the center 6 RB
  /// of each symbol set in `center_gaps` — one OFDM symbol at a time and
  /// write the decisions into the rebuilt grid. Returns how many REs
  /// were sliced.
  std::size_t slice_data(Work& w, const lte::ResourceGrid& layout,
                         std::uint16_t center_gaps, lte::Modulation m);

  lte::CellConfig cell_;
  lte::UeReceiver ue_;
  lte::OfdmModulator remod_;
  std::optional<Work> work_;
  // Single-owner contract: the working set is unguarded, so all calls
  // must come from one thread (whichever calls first).
  SingleOwner owner_;
};

}  // namespace lscatter::core
