#include "lte/ofdm.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "obs/obs.hpp"

namespace lscatter::lte {

using dsp::cf32;
using dsp::cvec;

namespace {

/// Per-thread FFT-length staging buffer for demodulation (the output span
/// holds n_subcarriers < K elements, so the transform needs its own K
/// samples of scratch). Grows to the largest K seen, then is reused.
cvec& demod_scratch(std::size_t k) {
  thread_local cvec bins;
  if (bins.size() < k) bins.resize(k);
  return bins;
}

}  // namespace

std::size_t symbol_offset_in_subframe(const CellConfig& cfg, std::size_t l) {
  LSCATTER_EXPECT(l < kSymbolsPerSubframe,
                  "symbol index exceeds the 14-symbol subframe");
  const std::size_t slot = l / kSymbolsPerSlot;
  const std::size_t in_slot = l % kSymbolsPerSlot;
  return slot * cfg.samples_per_slot() + cfg.symbol_offset_in_slot(in_slot);
}

OfdmModulator::OfdmModulator(const CellConfig& cfg)
    : cfg_(cfg),
      plan_(&dsp::cached_fft_plan(cfg.fft_size())),
      scale_(static_cast<float>(
          std::sqrt(static_cast<double>(cfg.fft_size()) /
                    static_cast<double>(cfg.n_subcarriers())))),
      time_scale_(static_cast<float>(
          static_cast<double>(scale_) *
          std::sqrt(static_cast<double>(cfg.fft_size())))) {}

cvec OfdmModulator::modulate(const ResourceGrid& grid) const {
  cvec out(cfg_.samples_per_subframe(), cf32{});
  modulate_into(grid, out);
  return out;
}

void OfdmModulator::modulate_into(const ResourceGrid& grid,
                                  std::span<cf32> out) const {
  LSCATTER_OBS_TIMER("lte.ofdm.modulate");
  LSCATTER_OBS_COUNTER_INC("lte.ofdm.subframes_modulated");
  LSCATTER_EXPECT(out.size() == cfg_.samples_per_subframe(),
                  "output must hold exactly one subframe of samples");
  for (std::size_t l = 0; l < kSymbolsPerSubframe; ++l) {
    const std::size_t off = symbol_offset_in_subframe(cfg_, l);
    const std::size_t len =
        cfg_.cp_length(l % kSymbolsPerSlot) + cfg_.fft_size();
    modulate_symbol_into(grid, l, out.subspan(off, len));
  }
}

cvec OfdmModulator::modulate_symbol(const ResourceGrid& grid,
                                    std::size_t l) const {
  const std::size_t cp = cfg_.cp_length(l % kSymbolsPerSlot);
  cvec out(cp + cfg_.fft_size());
  modulate_symbol_into(grid, l, out);
  return out;
}

void OfdmModulator::modulate_symbol_into(const ResourceGrid& grid,
                                         std::size_t l,
                                         std::span<cf32> out) const {
  const std::size_t cp = cfg_.cp_length(l % kSymbolsPerSlot);
  const std::size_t k = cfg_.fft_size();
  LSCATTER_EXPECT(out.size() == cp + k,
                  "output must hold CP + FFT-size samples");

  // IFFT directly in the useful part of the output; the CP then needs
  // only the single tail copy (the old path staged through a `bins`
  // vector and copied twice).
  const std::span<cf32> useful = out.subspan(cp, k);
  grid.to_fft_bins_into(l, useful);
  plan_->inverse_inplace(useful);
  // The IFFT divides by K; time_scale_ undoes part of it so time samples
  // have comparable power to the grid.
  for (cf32& v : useful) v *= time_scale_;
  std::copy(useful.end() - static_cast<std::ptrdiff_t>(cp), useful.end(),
            out.begin());
}

OfdmDemodulator::OfdmDemodulator(const CellConfig& cfg)
    : cfg_(cfg),
      plan_(&dsp::cached_fft_plan(cfg.fft_size())),
      scale_(static_cast<float>(
          std::sqrt(static_cast<double>(cfg.fft_size()) /
                    static_cast<double>(cfg.n_subcarriers())))),
      bin_scale_(static_cast<float>(
          1.0 / (static_cast<double>(scale_) *
                 std::sqrt(static_cast<double>(cfg.fft_size()))))) {}

std::size_t OfdmDemodulator::useful_start(std::size_t l) const {
  return symbol_offset_in_subframe(cfg_, l) +
         cfg_.cp_length(l % kSymbolsPerSlot);
}

ResourceGrid OfdmDemodulator::demodulate(
    std::span<const cf32> samples) const {
  ResourceGrid grid(cfg_);
  demodulate_into(samples, grid);
  return grid;
}

void OfdmDemodulator::demodulate_into(std::span<const cf32> samples,
                                      ResourceGrid& grid) const {
  LSCATTER_OBS_TIMER("lte.ofdm.demodulate");
  LSCATTER_EXPECT(samples.size() >= cfg_.samples_per_subframe(),
                  "need at least one full subframe of samples");
  LSCATTER_EXPECT(grid.n_subcarriers() == cfg_.n_subcarriers(),
                  "grid must be built for the demodulator's CellConfig");
  for (std::size_t l = 0; l < kSymbolsPerSubframe; ++l) {
    demodulate_symbol_into(samples, l, grid.symbol(l));
  }
}

void OfdmDemodulator::demodulate_into(std::span<const cf32> samples,
                                      ResourceGrid& grid,
                                      dsp::FftPlan::Workspace& ws) const {
  LSCATTER_OBS_TIMER("lte.ofdm.demodulate");
  LSCATTER_EXPECT(samples.size() >= cfg_.samples_per_subframe(),
                  "need at least one full subframe of samples");
  LSCATTER_EXPECT(grid.n_subcarriers() == cfg_.n_subcarriers(),
                  "grid must be built for the demodulator's CellConfig");
  for (std::size_t l = 0; l < kSymbolsPerSubframe; ++l) {
    demod_symbol_with(samples, l, grid.symbol(l), &ws);
  }
}

void OfdmDemodulator::demodulate_batch_into(
    std::span<const cf32> samples, std::span<ResourceGrid> grids,
    dsp::FftPlan::Workspace& ws) const {
  const std::size_t spf = cfg_.samples_per_subframe();
  LSCATTER_EXPECT(samples.size() >= grids.size() * spf,
                  "need grids.size() full subframes of samples");
  for (std::size_t b = 0; b < grids.size(); ++b) {
    demodulate_into(samples.subspan(b * spf), grids[b], ws);
  }
}

cvec OfdmDemodulator::demodulate_symbol(std::span<const cf32> samples,
                                        std::size_t l) const {
  cvec out(cfg_.n_subcarriers());
  demodulate_symbol_into(samples, l, out);
  return out;
}

void OfdmDemodulator::demodulate_symbol_into(std::span<const cf32> samples,
                                             std::size_t l,
                                             std::span<cf32> out) const {
  demod_symbol_with(samples, l, out, nullptr);
}

void OfdmDemodulator::demodulate_symbol_into(
    std::span<const cf32> samples, std::size_t l, std::span<cf32> out,
    dsp::FftPlan::Workspace& ws) const {
  demod_symbol_with(samples, l, out, &ws);
}

void OfdmDemodulator::demod_symbol_with(std::span<const cf32> samples,
                                        std::size_t l, std::span<cf32> out,
                                        dsp::FftPlan::Workspace* ws) const {
  const std::size_t k = cfg_.fft_size();
  const std::size_t start = useful_start(l);
  LSCATTER_EXPECT(samples.size() >= start + k,
                  "useful window must lie inside the sample buffer");
  LSCATTER_EXPECT(out.size() == cfg_.n_subcarriers(),
                  "output must hold exactly n_subcarriers elements");

  cvec& scratch = demod_scratch(k);
  const std::span<cf32> bins(scratch.data(), k);
  std::copy(samples.begin() + static_cast<std::ptrdiff_t>(start),
            samples.begin() + static_cast<std::ptrdiff_t>(start + k),
            bins.begin());
  // ws == nullptr falls back to the per-thread FFT scratch.
  if (ws != nullptr) {
    plan_->forward_inplace(bins, *ws);
  } else {
    plan_->forward_inplace(bins);
  }

  // Gather subcarriers, applying the inverse scaling at the gather so the
  // full K-bin pass is skipped. subcarrier_to_bin() is two contiguous
  // runs: the top `half` bins, then bins 1..n_sc - half.
  const std::size_t half = out.size() / 2;
  const cf32* neg = bins.data() + (k - half);
  for (std::size_t sc = 0; sc < half; ++sc) out[sc] = neg[sc] * bin_scale_;
  const cf32* pos = bins.data() + 1;
  for (std::size_t sc = half; sc < out.size(); ++sc)
    out[sc] = pos[sc - half] * bin_scale_;
}

}  // namespace lscatter::lte
