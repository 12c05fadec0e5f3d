#include "lte/ue_rx.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "lte/sequences.hpp"
#include "lte/signal_map.hpp"
#include "lte/transport.hpp"

namespace lscatter::lte {

using dsp::cf32;
using dsp::cvec;

UeReceiver::UeReceiver(const CellConfig& cfg) : cfg_(cfg), demod_(cfg) {}

void UeReceiver::demodulate_grid_into(std::span<const cf32> samples,
                                      ResourceGrid& grid) const {
  demod_.demodulate_into(samples, grid);
}

void UeReceiver::estimate_channel_into(const ResourceGrid& rx_grid,
                                       std::size_t subframe_index,
                                       ChannelEstimate& est) const {
  const std::size_t n_sc = cfg_.n_subcarriers();
  const std::size_t n_crs = 2 * cfg_.n_rb();

  // CRS symbols 0/7 and 4/11 share their subcarriers (v = 0 and v = 3), so
  // the pilots sit every 3 subcarriers from `first`, two LS estimates
  // (rx * conj(tx) / |tx|^2) each, accumulated in symbol order.
  std::array<std::array<cf32, 2 * kMaxRb>, kCrsSymbolIndices.size()> tx;
  for (std::size_t s = 0; s < kCrsSymbolIndices.size(); ++s) {
    crs_values_for_symbol_into(cfg_, subframe_index, kCrsSymbolIndices[s],
                               std::span<cf32>(tx[s].data(), n_crs));
  }
  const std::size_t first = std::min(crs_first_subcarrier(cfg_, 0),
                                     crs_first_subcarrier(cfg_, 4));
  const std::size_t n_pilots = n_sc / 3;
  std::array<cf32, 2 * 2 * kMaxRb> pv;
  for (std::size_t j = 0; j < n_pilots; ++j) {
    const std::size_t k = first + 3 * j;
    // Symbol slots 0, 2 (l = 0, 7) or 1, 3 (l = 4, 11) in kCrsSymbolIndices.
    const std::size_t s0 = k % 6 == crs_first_subcarrier(cfg_, 0) ? 0 : 1;
    cf32 acc{};
    for (const std::size_t s : {s0, s0 + 2}) {
      const cf32 t = tx[s][k / 6];
      acc += rx_grid.at(kCrsSymbolIndices[s], k) * std::conj(t) /
             std::norm(t);
    }
    pv[j] = acc / 2.0f;
  }

  // Linear interpolation between pilots, flat beyond the outermost ones.
  est.h.assign(n_sc, cf32{1.0f, 0.0f});
  const std::size_t k_front = first;
  const std::size_t k_back = first + 3 * (n_pilots - 1);
  std::size_t seg = 0;
  for (std::size_t k = 0; k < n_sc; ++k) {
    if (k <= k_front) {
      est.h[k] = pv[0];
      continue;
    }
    if (k >= k_back) {
      est.h[k] = pv[n_pilots - 1];
      continue;
    }
    while (seg + 1 < n_pilots && first + 3 * (seg + 1) < k) ++seg;
    const std::size_t k0 = first + 3 * seg;
    const std::size_t k1 = k0 + 3;
    const float t = static_cast<float>(k - k0) /
                    static_cast<float>(k1 - k0);
    est.h[k] = pv[seg] * (1.0f - t) + pv[seg + 1] * t;
  }
}

SubframeRxResult UeReceiver::receive_subframe(
    std::span<const cf32> samples, const SubframeTx& truth,
    Modulation modulation) const {
  SubframeRxResult res;
  ResourceGrid rx(cfg_);
  demodulate_grid_into(samples, rx);
  ChannelEstimate est;
  estimate_channel_into(rx, truth.subframe_index, est);

  // Equalize and gather data REs in the same symbol-major order the eNodeB
  // used when mapping.
  const std::size_t n_sc = cfg_.n_subcarriers();
  cvec eq;
  cvec ref;
  eq.reserve(kSymbolsPerSubframe * n_sc);
  for (std::size_t l = 0; l < kSymbolsPerSubframe; ++l) {
    for (std::size_t k = 0; k < n_sc; ++k) {
      if (truth.grid.type_at(l, k) != ReType::kData) continue;
      const cf32 h = est.h[k];
      const float p = std::norm(h);
      const cf32 y = rx.at(l, k);
      eq.push_back(p > 1e-12f ? y * std::conj(h) / p : y);
      ref.push_back(truth.grid.at(l, k));
    }
  }

  res.evm_rms = evm_rms(eq, ref);

  const auto bits = qam_demodulate(eq, modulation);
  const auto layout = segment(bits.size());
  const auto blocks = decode_blocks(layout, bits);
  res.crc_ok = blocks.all_ok();
  res.blocks_total = blocks.blocks_total;
  res.blocks_ok = blocks.blocks_ok;
  res.bits_delivered = blocks.info_bits_ok;

  // Bit errors against the true payload (CRC bits excluded on both
  // sides; the layouts match because capacity matches).
  const std::size_t n_payload = truth.payload_bits.size();
  assert(blocks.info.size() == n_payload);
  res.n_bits = n_payload;
  for (std::size_t i = 0; i < n_payload; ++i) {
    if (blocks.info[i] != truth.payload_bits[i]) ++res.bit_errors;
  }
  return res;
}

}  // namespace lscatter::lte
