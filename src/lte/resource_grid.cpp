#include "lte/resource_grid.hpp"

#include <algorithm>
#include <cassert>

#include "core/contracts.hpp"

namespace lscatter::lte {

using dsp::cf32;
using dsp::cvec;

ResourceGrid::ResourceGrid(const CellConfig& cfg)
    : n_sc_(cfg.n_subcarriers()),
      fft_size_(cfg.fft_size()),
      re_(kSymbolsPerSubframe * n_sc_, cf32{}),
      types_(kSymbolsPerSubframe * n_sc_, ReType::kData) {}

void ResourceGrid::clear() {
  std::fill(re_.begin(), re_.end(), cf32{});
  std::fill(types_.begin(), types_.end(), ReType::kData);
}

std::size_t subcarrier_to_bin(std::size_t subcarrier, std::size_t n_sc,
                              std::size_t fft_size) {
  assert(subcarrier < n_sc);
  const std::size_t half = n_sc / 2;
  if (subcarrier < half) {
    // Negative frequencies: subcarrier 0 is the lowest, bin K - half.
    return fft_size - half + subcarrier;
  }
  // Positive frequencies start at bin 1 (DC skipped).
  return subcarrier - half + 1;
}

std::size_t ResourceGrid::subcarrier_to_bin(std::size_t subcarrier) const {
  return lte::subcarrier_to_bin(subcarrier, n_sc_, fft_size_);
}

// subcarrier_to_bin() as two contiguous runs: the lower half of the band
// [0, half) lands on bins [K - half, K), the upper half on [1, n_sc - half
// + 1). Everything between (DC and the guard band) stays empty.
void ResourceGrid::to_fft_bins_into(std::size_t l,
                                    std::span<cf32> bins) const {
  LSCATTER_EXPECT(bins.size() == fft_size_,
                  "bin buffer must hold exactly fft_size elements");
  const std::size_t half = n_sc_ / 2;
  const auto sym = symbol(l);
  bins[0] = cf32{};
  std::copy(sym.begin() + static_cast<std::ptrdiff_t>(half), sym.end(),
            bins.begin() + 1);
  std::fill(bins.begin() + static_cast<std::ptrdiff_t>(n_sc_ - half + 1),
            bins.end() - static_cast<std::ptrdiff_t>(half), cf32{});
  std::copy(sym.begin(), sym.begin() + static_cast<std::ptrdiff_t>(half),
            bins.end() - static_cast<std::ptrdiff_t>(half));
}

}  // namespace lscatter::lte
