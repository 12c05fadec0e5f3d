#pragma once
// One subframe (14 OFDM symbols x N_sc subcarriers) of frequency-domain
// resource elements, plus the mapping between subcarrier indices and FFT
// bins (DC subcarrier unused, spectrum centered on the carrier).

#include <cassert>
#include <cstddef>
#include <vector>

#include "dsp/types.hpp"
#include "lte/cell_config.hpp"

namespace lscatter::lte {

/// Identifies what occupies a resource element — used by the eNodeB mapper
/// and by the UE when deciding which REs are data.
enum class ReType : std::uint8_t {
  kData = 0,
  kCrs,
  kPss,
  kSss,
  kPbch,
  kPdcch,
  kUnused,
};

/// Map subcarrier index (0..n_sc-1, lowest frequency first) to FFT bin
/// (0..fft_size-1). The DC bin 0 is skipped: the lower half of the band
/// occupies the top (negative-frequency) bins, the upper half bins
/// 1..n_sc/2.
std::size_t subcarrier_to_bin(std::size_t subcarrier, std::size_t n_sc,
                              std::size_t fft_size);

class ResourceGrid {
 public:
  explicit ResourceGrid(const CellConfig& cfg);

  std::size_t n_symbols() const { return kSymbolsPerSubframe; }
  std::size_t n_subcarriers() const { return n_sc_; }

  dsp::cf32& at(std::size_t symbol, std::size_t subcarrier) {
    assert(symbol < kSymbolsPerSubframe && subcarrier < n_sc_);
    return re_[symbol * n_sc_ + subcarrier];
  }
  dsp::cf32 at(std::size_t symbol, std::size_t subcarrier) const {
    assert(symbol < kSymbolsPerSubframe && subcarrier < n_sc_);
    return re_[symbol * n_sc_ + subcarrier];
  }

  ReType& type_at(std::size_t symbol, std::size_t subcarrier) {
    assert(symbol < kSymbolsPerSubframe && subcarrier < n_sc_);
    return types_[symbol * n_sc_ + subcarrier];
  }
  ReType type_at(std::size_t symbol, std::size_t subcarrier) const {
    assert(symbol < kSymbolsPerSubframe && subcarrier < n_sc_);
    return types_[symbol * n_sc_ + subcarrier];
  }

  /// Whole-symbol views.
  std::span<dsp::cf32> symbol(std::size_t l) {
    assert(l < kSymbolsPerSubframe);
    return std::span<dsp::cf32>(re_).subspan(l * n_sc_, n_sc_);
  }
  std::span<const dsp::cf32> symbol(std::size_t l) const {
    assert(l < kSymbolsPerSubframe);
    return std::span<const dsp::cf32>(re_).subspan(l * n_sc_, n_sc_);
  }
  std::span<const ReType> symbol_types(std::size_t l) const {
    assert(l < kSymbolsPerSubframe);
    return std::span<const ReType>(types_).subspan(l * n_sc_, n_sc_);
  }

  void clear();

  /// Member convenience wrapper for the free subcarrier_to_bin().
  std::size_t subcarrier_to_bin(std::size_t subcarrier) const;

  /// Spread a frequency-domain symbol into a caller buffer of exactly
  /// fft_size elements: the zero-padded FFT input of length K (zeroed
  /// and filled in place; no allocation).
  void to_fft_bins_into(std::size_t l, std::span<dsp::cf32> bins) const;

 private:
  std::size_t n_sc_;
  std::size_t fft_size_;
  std::vector<dsp::cf32> re_;
  std::vector<ReType> types_;
};

}  // namespace lscatter::lte
