#include "core/lscatter_rx.hpp"

#include <cassert>
#include <cmath>

#include "core/phase_offset.hpp"
#include "dsp/linalg.hpp"
#include "dsp/simd.hpp"
#include "lte/signal_map.hpp"
#include "obs/obs.hpp"

namespace lscatter::core {

using dsp::cf32;
using dsp::cvec;

LscatterDemodulator::LscatterDemodulator(
    const lte::CellConfig& cell, const tag::TagScheduleConfig& schedule,
    const OffsetSearch& search, Fec fec)
    : cell_(cell),
      controller_(cell, schedule),
      search_(search),
      fec_(fec),
      plan_(&dsp::cached_fft_plan(cell.fft_size())) {}

std::vector<dsp::cf64> LscatterDemodulator::estimate_channel_fir(
    std::span<const cf32> rx, std::span<const cf32> ambient,
    std::size_t subframe_offset_samples, std::size_t l,
    std::ptrdiff_t offset_units) const {
  const std::size_t k = cell_.fft_size();
  const std::size_t useful =
      subframe_offset_samples + lte::symbol_offset_in_subframe(cell_, l) +
      cell_.cp_length(l % lte::kSymbolsPerSlot);

  // Regressor: the transmitted hybrid signal, reconstructed from the
  // known ambient and the preamble's full unit pattern at the estimated
  // offset (filler '1' outside the window).
  const auto& pre = controller_.preamble_pattern();
  const std::ptrdiff_t start =
      controller_.modulation_start_unit() + offset_units;
  cvec u(k);
  for (std::size_t n = 0; n < k; ++n) {
    const std::ptrdiff_t rel = static_cast<std::ptrdiff_t>(n) - start;
    const bool one =
        (rel < 0 || rel >= static_cast<std::ptrdiff_t>(pre.size()))
            ? true
            : pre[static_cast<std::size_t>(rel)] != 0;
    const cf32 x = ambient[useful + n];
    u[n] = one ? x : -x;
  }
  // The offset search locks onto the channel's group-delay centroid, so
  // the effective channel relative to `u` has *pre-cursor* taps. Model
  // r[n] = sum_l h_l u[n - l + pre] with pre = taps/2 by advancing the
  // regressor; equalize_window() places tap l at delay (l - pre).
  const std::size_t taps = search_.equalizer_taps;
  const std::size_t precursor = taps / 2;
  const std::span<const cf32> v(u.data() + precursor, k - precursor);
  const std::span<const cf32> r(rx.data() + useful, k - precursor);
  return dsp::fir_least_squares(v, r, taps);
}

dsp::cvec LscatterDemodulator::equalize_window(
    std::span<const cf32> rx_window, std::span<const dsp::cf64> h) const {
  const std::size_t k = cell_.fft_size();
  assert(rx_window.size() == k);

  // Frequency response of the estimated FIR; tap l sits at delay
  // (l - pre) with pre = taps/2 (see estimate_channel_fir).
  const std::size_t precursor = search_.equalizer_taps / 2;
  cvec h_pad(k, cf32{});
  for (std::size_t t = 0; t < h.size(); ++t) {
    const std::size_t idx = (t + k - precursor) % k;
    h_pad[idx] = cf32{static_cast<float>(h[t].real()),
                      static_cast<float>(h[t].imag())};
  }
  plan_->forward_inplace(h_pad);

  cvec r(rx_window.begin(), rx_window.end());
  plan_->forward_inplace(r);
  // Regularized zero-forcing: divide by H, flooring |H|^2.
  double mean_h2 = 0.0;
  for (const cf32 v : h_pad) mean_h2 += std::norm(v);
  mean_h2 /= static_cast<double>(k);
  const float eps = static_cast<float>(1e-3 * mean_h2);
  for (std::size_t i = 0; i < k; ++i) {
    const float p = std::norm(h_pad[i]) + eps;
    r[i] = r[i] * std::conj(h_pad[i]) / p;
  }
  plan_->inverse_inplace(r);
  return r;
}

void LscatterDemodulator::symbol_products_into(
    std::span<const cf32> rx, std::span<const cf32> ambient,
    std::size_t subframe_offset_samples, std::size_t l, cvec& z_out,
    std::span<const dsp::cf64> h) const {
  const std::size_t k = cell_.fft_size();
  const std::size_t useful =
      subframe_offset_samples + lte::symbol_offset_in_subframe(cell_, l) +
      cell_.cp_length(l % lte::kSymbolsPerSlot);
  assert(useful + k <= rx.size());
  assert(useful + k <= ambient.size());

  // z[n] = r[n] · conj(ambient[n]) through the dispatched kernel — the
  // per-unit product is the §3.2 demodulation front end and dominates the
  // data-symbol path.
  if (z_out.size() != k) z_out.resize(k);
  const dsp::SimdKernels& kern = dsp::simd_kernels();
  if (h.empty()) {
    kern.conj_mul(rx.data() + useful, ambient.data() + useful, z_out.data(),
                  k);
  } else {
    const cvec r_eq =
        equalize_window(std::span<const cf32>(rx.data() + useful, k), h);
    kern.conj_mul(r_eq.data(), ambient.data() + useful, z_out.data(), k);
  }
}

cf32 LscatterDemodulator::estimate_symbol_gain(std::span<const cf32> z,
                                               std::ptrdiff_t offset_units,
                                               cf32 fallback) const {
  const std::size_t n_sc = cell_.n_subcarriers();
  const std::ptrdiff_t start =
      static_cast<std::ptrdiff_t>(controller_.modulation_start_unit()) +
      offset_units;
  const std::ptrdiff_t stop = start + static_cast<std::ptrdiff_t>(n_sc);

  // A few guard units around the window absorb edge uncertainty. The
  // kept filler is the two contiguous runs outside the guarded window,
  // each summed by the dispatched sum_abs kernel.
  constexpr std::ptrdiff_t kGuard = 4;
  const auto size = static_cast<std::ptrdiff_t>(z.size());
  const auto clamp = [size](std::ptrdiff_t v) {
    return v < 0 ? std::ptrdiff_t{0} : (v > size ? size : v);
  };
  const std::ptrdiff_t head_end = clamp(start - kGuard);
  const std::ptrdiff_t tail_begin = clamp(stop + kGuard);
  double ar = 0.0;
  double ai = 0.0;
  double abs_sum = 0.0;
  const dsp::SimdKernels& kern = dsp::simd_kernels();
  if (head_end > 0) {
    kern.sum_abs(z.data(), static_cast<std::size_t>(head_end), &ar, &ai,
                 &abs_sum);
  }
  if (tail_begin < size) {
    kern.sum_abs(z.data() + tail_begin,
                 static_cast<std::size_t>(size - tail_begin), &ar, &ai,
                 &abs_sum);
  }
  const std::size_t count =
      static_cast<std::size_t>(head_end + (size - tail_begin));
  // Comparisons in the !(x > y) form, so NaN sums fall back too.
  if (count < 16 || !(abs_sum > 0.0)) return fallback;
  const cf32 g{static_cast<float>(ar), static_cast<float>(ai)};
  // Very incoherent filler (magnitude far below what its energy allows)
  // means the estimate is noise-dominated; trust the preamble instead.
  // An infinite (overflowed) gain falls back as well.
  const float mag = std::abs(g);
  if (!(mag >= 0.1 * abs_sum) || std::isinf(mag)) return fallback;
  return g;
}

void LscatterDemodulator::slice_symbol(std::span<const cf32> z,
                                       std::ptrdiff_t offset_units,
                                       cf32 gain,
                                       std::vector<std::uint8_t>& bits,
                                       std::vector<float>& soft) const {
  const std::size_t rep = controller_.schedule().repetition;
  const std::size_t n_bits = controller_.bits_per_symbol();
  const std::ptrdiff_t start =
      static_cast<std::ptrdiff_t>(controller_.modulation_start_unit()) +
      offset_units;
  const float mag = std::abs(gain);
  const cf32 unit = mag > 0.0f ? std::conj(gain) / mag : cf32{1.0f, 0.0f};
  // Keep soft metrics on a comparable scale across symbols/packets.
  const float norm = mag > 0.0f ? 1.0f / mag : 1.0f;

  for (std::size_t i = 0; i < n_bits; ++i) {
    // Soft-combine the bit's `rep` consecutive units (maximum-ratio:
    // z already carries the |x_n|^2 weighting).
    cf32 v{};
    for (std::size_t r = 0; r < rep; ++r) {
      const std::ptrdiff_t idx =
          start + static_cast<std::ptrdiff_t>(i * rep + r);
      if (idx >= 0 && idx < static_cast<std::ptrdiff_t>(z.size())) {
        v += z[static_cast<std::size_t>(idx)] * unit;
      }
    }
    bits.push_back(v.real() >= 0.0f ? 1 : 0);
    soft.push_back(v.real() * norm);
  }
}

PacketDemodStatus LscatterDemodulator::demodulate_packet_into(
    std::span<const cf32> rx, std::span<const cf32> ambient,
    std::size_t first_subframe_index, DemodWorkspace& ws) const {
  LSCATTER_OBS_SPAN("core.demod.packet");
  LSCATTER_OBS_COUNTER_INC("core.demod.packets");
  PacketDemodStatus status;
  const auto& sched = controller_.schedule();
  const std::size_t sf_samples = cell_.samples_per_subframe();
  assert(rx.size() >= sched.packet_subframes * sf_samples);
  assert(ambient.size() == rx.size());

  const std::ptrdiff_t nominal = controller_.modulation_start_unit();
  const auto& preamble = controller_.preamble_pattern();

  // Walk the packet's modulated symbols in schedule order: the first
  // preamble_symbols are preamble, the rest data.
  std::size_t preambles_expected = sched.preamble_symbols;
  std::size_t data_symbols_expected =
      controller_.packet_raw_bits(first_subframe_index) /
      controller_.bits_per_symbol();
  std::optional<OffsetResult> offset;
  cf32 gain{};
  ws.coded.clear();  // capacity retained: no allocation once warm
  ws.soft.clear();
  std::pair<std::size_t, std::size_t> best_preamble{0, 0};  // (sf_off, l)
  std::vector<dsp::cf64> h;  // equalizer FIR, estimated lazily (taps > 0)

  for (std::size_t s = 0; s < sched.packet_subframes; ++s) {
    const std::size_t sf = first_subframe_index + s;
    if (controller_.is_listening_subframe(sf)) continue;
    const std::size_t sf_off = s * sf_samples;

    for (std::size_t l = 0; l < lte::kSymbolsPerSubframe; ++l) {
      if (!controller_.symbol_modulatable(sf, l)) continue;
      if (preambles_expected > 0) {
        --preambles_expected;
        LSCATTER_OBS_TIMER("core.demod.offset_search");
        symbol_products_into(rx, ambient, sf_off, l, ws.z);
        auto found =
            find_modulation_offset(ws.z, preamble, nominal, search_);
        if (found && (!offset || found->metric > offset->metric)) {
          offset = *found;
          gain = found->gain;
          best_preamble = {sf_off, l};
        }
        continue;
      }
      if (!offset) {
        // Preamble missed: the packet is lost; stop early.
        LSCATTER_OBS_COUNTER_INC("core.demod.preamble_missed");
        return status;
      }
      if (search_.equalizer_taps > 0 && h.empty()) {
        LSCATTER_OBS_TIMER("core.demod.equalizer_fit");
        // Under ISI the correlation peak can be off by a unit or two, and
        // a timing slip between the ambient and the pattern is *not*
        // expressible as an LTI channel (they shift independently), so
        // refine the offset jointly with the channel fit: pick the
        // candidate whose least-squares residual is smallest.
        cvec zd;
        double best_residual = 0.0;
        for (std::ptrdiff_t d = offset->offset_units - 2;
             d <= offset->offset_units + 2; ++d) {
          auto cand = estimate_channel_fir(
              rx, ambient, best_preamble.first, best_preamble.second, d);
          if (cand.empty()) continue;
          // Residual via the equalized preamble: slice against the known
          // pattern and count soft disagreement energy.
          symbol_products_into(rx, ambient, best_preamble.first,
                               best_preamble.second, zd, cand);
          double agree = 0.0;
          const std::ptrdiff_t start =
              controller_.modulation_start_unit() + d;
          for (std::size_t i = 0; i < preamble.size(); ++i) {
            const std::ptrdiff_t idx =
                start + static_cast<std::ptrdiff_t>(i);
            if (idx < 0 || idx >= static_cast<std::ptrdiff_t>(zd.size())) {
              continue;
            }
            const float sgn = preamble[i] ? 1.0f : -1.0f;
            agree += sgn * zd[static_cast<std::size_t>(idx)].real();
          }
          if (h.empty() || agree > best_residual) {
            best_residual = agree;
            h = std::move(cand);
            offset->offset_units = d;
          }
        }
      }
      if (data_symbols_expected == 0) break;
      --data_symbols_expected;
      {
        // Conjugate products (and equalization when fitted) + slicing
        // together are the paper's unit-level demodulation (§3.2/§3.3).
        LSCATTER_OBS_TIMER("core.demod.unit_demod");
        symbol_products_into(rx, ambient, sf_off, l, ws.z, h);
      }
      cf32 g;
      {
        // Per-symbol gain re-estimate = the §3.3.1 phase-offset
        // elimination step.
        LSCATTER_OBS_TIMER("core.demod.phase_offset");
        g = estimate_symbol_gain(ws.z, offset->offset_units, gain);
      }
      {
        LSCATTER_OBS_TIMER("core.demod.unit_demod");
        slice_symbol(ws.z, offset->offset_units, g, ws.coded, ws.soft);
      }
    }
  }

  if (!offset) {
    LSCATTER_OBS_COUNTER_INC("core.demod.preamble_missed");
    return status;
  }
  LSCATTER_OBS_COUNTER_INC("core.demod.preamble_found");
  status.preamble_found = true;
  status.offset_units = offset->offset_units;
  status.preamble_metric = offset->metric;
  if (ws.coded.size() > 32) {
    LSCATTER_OBS_TIMER("core.demod.fec_crc");
    // Codec cached per on-air size: the whitening sequence is derived
    // from the size alone, so a handful of entries covers the stream.
    const PacketCodec* codec = nullptr;
    for (const auto& [size, c] : ws.codecs) {
      if (size == ws.coded.size()) {
        codec = &c;
        break;
      }
    }
    if (codec == nullptr) {
      ws.codecs.emplace_back(ws.coded.size(),
                             PacketCodec(ws.coded.size(), fec_));
      codec = &ws.codecs.back().second;
    }
    if (fec_ == Fec::kNone) {
      status.crc_ok =
          codec->decode_hard_into(ws.coded, ws.crc_scratch, ws.payload);
    } else if (auto decoded = codec->decode_soft(ws.soft)) {
      ws.payload.assign(decoded->begin(), decoded->end());
      status.crc_ok = true;
    }
    if (status.crc_ok) {
      LSCATTER_OBS_COUNTER_INC("core.demod.crc_ok");
    } else {
      LSCATTER_OBS_COUNTER_INC("core.demod.crc_fail");
    }
  }
  return status;
}

PacketDemodResult LscatterDemodulator::demodulate_packet(
    std::span<const cf32> rx, std::span<const cf32> ambient,
    std::size_t first_subframe_index) const {
  DemodWorkspace ws;
  const PacketDemodStatus status =
      demodulate_packet_into(rx, ambient, first_subframe_index, ws);
  PacketDemodResult result;
  result.preamble_found = status.preamble_found;
  result.offset_units = status.offset_units;
  result.preamble_metric = status.preamble_metric;
  result.coded_bits = std::move(ws.coded);
  result.soft_bits = std::move(ws.soft);
  if (status.crc_ok) result.payload = std::move(ws.payload);
  return result;
}

}  // namespace lscatter::core
