#include "lte/qam.hpp"

#include <cassert>
#include <cmath>

#include "core/contracts.hpp"
#include "dsp/simd.hpp"

namespace lscatter::lte {

using dsp::cf32;
using dsp::cvec;

std::size_t bits_per_symbol(Modulation m) {
  switch (m) {
    case Modulation::kQpsk: return 2;
    case Modulation::kQam16: return 4;
    case Modulation::kQam64: return 6;
  }
  return 2;
}

const char* to_string(Modulation m) {
  switch (m) {
    case Modulation::kQpsk: return "QPSK";
    case Modulation::kQam16: return "16QAM";
    case Modulation::kQam64: return "64QAM";
  }
  return "?";
}

namespace {

constexpr double kSqrt2 = 1.41421356237309515;
constexpr double kSqrt10 = 3.16227766016837952;
constexpr double kSqrt42 = 6.48074069840786023;

inline float axis16(std::uint8_t b_hi, std::uint8_t b_lo) {
  // TS 36.211 Table 7.1.3-1: value in {1, 3} with sign from b_hi.
  const double mag = 2.0 - (1.0 - 2.0 * b_lo);
  return static_cast<float>((1.0 - 2.0 * b_hi) * mag / kSqrt10);
}

inline float axis64(std::uint8_t b_hi, std::uint8_t b_mid,
                    std::uint8_t b_lo) {
  // TS 36.211 Table 7.1.4-1: value in {1, 3, 5, 7}.
  const double mag = 4.0 - (1.0 - 2.0 * b_mid) * (2.0 - (1.0 - 2.0 * b_lo));
  return static_cast<float>((1.0 - 2.0 * b_hi) * mag / kSqrt42);
}

/// Per-axis constellation LUTs, built once with the exact axis16/axis64
/// formulas so LUT mapping is bit-identical to the closed forms. Indexed
/// by the axis bits packed MSB-first ((b_hi<<1)|b_lo etc.).
struct QamLuts {
  float qpsk[2];
  float ax16[4];
  float ax64[8];
};

const QamLuts& qam_luts() {
  static const QamLuts t = [] {
    QamLuts l{};
    for (std::uint8_t b = 0; b < 2; ++b) {
      l.qpsk[b] = static_cast<float>((1.0 - 2.0 * b) / kSqrt2);
    }
    for (std::uint8_t hi = 0; hi < 2; ++hi) {
      for (std::uint8_t lo = 0; lo < 2; ++lo) {
        l.ax16[(hi << 1) | lo] = axis16(hi, lo);
        for (std::uint8_t mid = 0; mid < 2; ++mid) {
          l.ax64[(hi << 2) | (mid << 1) | lo] = axis64(hi, mid, lo);
        }
      }
    }
    return l;
  }();
  return t;
}

}  // namespace

cvec qam_modulate(std::span<const std::uint8_t> bits, Modulation m) {
  cvec out(bits.size() / bits_per_symbol(m));
  qam_modulate_into(bits, m, out);
  return out;
}

void qam_modulate_into(std::span<const std::uint8_t> bits, Modulation m,
                       std::span<cf32> out) {
  // A contract rather than an assert, so release builds check it too: an
  // undersized `bits` would be read past.
  LSCATTER_EXPECT(bits.size() == out.size() * bits_per_symbol(m),
                  "bits must hold exactly bits_per_symbol bits per symbol");
  const std::size_t n = out.size();
  const QamLuts& lut = qam_luts();
  // Bits are 0/1 by contract; the & 1 below makes a stray byte select a
  // wrong constellation point instead of reading past the table.
  switch (m) {
    case Modulation::kQpsk:
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t* b = &bits[i * 2];
        out[i] = cf32{lut.qpsk[b[0] & 1], lut.qpsk[b[1] & 1]};
      }
      break;
    case Modulation::kQam16:
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t* b = &bits[i * 4];
        out[i] = cf32{lut.ax16[((b[0] & 1) << 1) | (b[2] & 1)],
                      lut.ax16[((b[1] & 1) << 1) | (b[3] & 1)]};
      }
      break;
    case Modulation::kQam64:
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t* b = &bits[i * 6];
        out[i] = cf32{
            lut.ax64[((b[0] & 1) << 2) | ((b[2] & 1) << 1) | (b[4] & 1)],
            lut.ax64[((b[1] & 1) << 2) | ((b[3] & 1) << 1) | (b[5] & 1)]};
      }
      break;
  }
}

std::vector<std::uint8_t> qam_demodulate(std::span<const cf32> symbols,
                                         Modulation m) {
  std::vector<std::uint8_t> bits(symbols.size() * bits_per_symbol(m));
  qam_demodulate_into(symbols, m, bits);
  return bits;
}

void qam_demodulate_into(std::span<const cf32> symbols, Modulation m,
                         std::span<std::uint8_t> bits) {
  LSCATTER_EXPECT(bits.size() == symbols.size() * bits_per_symbol(m),
                  "bits must hold exactly bits_per_symbol bits per symbol");
  // The demap thresholds live beside the kernels (dsp/simd_tables.hpp)
  // and mirror the constellation constants above; every tier is
  // bit-exact, so which one runs is unobservable here.
  const dsp::SimdKernels& k = dsp::simd_kernels();
  switch (m) {
    case Modulation::kQpsk:
      k.qam_demap_qpsk(symbols.data(), symbols.size(), bits.data());
      break;
    case Modulation::kQam16:
      k.qam_demap16(symbols.data(), symbols.size(), bits.data());
      break;
    case Modulation::kQam64:
      k.qam_demap64(symbols.data(), symbols.size(), bits.data());
      break;
  }
}

double evm_rms(std::span<const cf32> received,
               std::span<const cf32> reference) {
  assert(received.size() == reference.size());
  if (received.empty()) return 0.0;
  double err = 0.0;
  double ref = 0.0;
  for (std::size_t i = 0; i < received.size(); ++i) {
    err += std::norm(received[i] - reference[i]);
    ref += std::norm(reference[i]);
  }
  return ref > 0.0 ? std::sqrt(err / ref) : 0.0;
}

}  // namespace lscatter::lte
