#include "core/framing.hpp"

#include "core/contracts.hpp"
#include "dsp/convolutional.hpp"
#include "dsp/crc.hpp"
#include "lte/sequences.hpp"

namespace lscatter::core {

PacketCodec::PacketCodec(std::size_t coded_bits, Fec fec)
    : coded_bits_(coded_bits), fec_(fec) {
  LSCATTER_EXPECT(coded_bits > 32,
                  "a packet must carry more than the 32-bit CRC");
  switch (fec_) {
    case Fec::kNone:
      payload_bits_ = coded_bits_ - 32;
      break;
    case Fec::kConvolutional: {
      const std::size_t info = dsp::conv_info_capacity(coded_bits_);
      LSCATTER_ASSERT(info > 32,
                      "FEC info capacity must still exceed the CRC");
      payload_bits_ = info - 32;
      break;
    }
  }
  whitening_ = lte::gold_sequence(0x2A2A2A2Au & 0x7FFFFFFFu, coded_bits);
}

std::vector<std::uint8_t> PacketCodec::encode(
    std::span<const std::uint8_t> payload) const {
  LSCATTER_EXPECT(payload.size() == payload_bits_,
                  "payload length must match the codec layout");
  auto block = dsp::attach_crc32(payload);
  std::vector<std::uint8_t> coded;
  switch (fec_) {
    case Fec::kNone:
      coded = std::move(block);
      break;
    case Fec::kConvolutional:
      coded = dsp::conv_encode(block);
      break;
  }
  // Pad to the on-air size (FEC sizes rarely land exactly on capacity).
  LSCATTER_ENSURE(coded.size() <= coded_bits_,
                  "encoder output cannot exceed the on-air size");
  while (coded.size() < coded_bits_) {
    coded.push_back(static_cast<std::uint8_t>(coded.size() % 2));
  }
  for (std::size_t i = 0; i < coded.size(); ++i) coded[i] ^= whitening_[i];
  return coded;
}

std::vector<std::uint8_t> PacketCodec::dewhiten(
    std::span<const std::uint8_t> coded) const {
  LSCATTER_EXPECT(coded.size() == coded_bits_,
                  "coded length must match the on-air size");
  std::vector<std::uint8_t> out(coded.begin(), coded.end());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] ^= whitening_[i];
  return out;
}

std::optional<std::vector<std::uint8_t>> PacketCodec::finish_decode(
    std::vector<std::uint8_t> crc_block) const {
  if (!dsp::check_crc32(crc_block)) return std::nullopt;
  crc_block.resize(payload_bits_);
  return crc_block;
}

std::optional<std::vector<std::uint8_t>> PacketCodec::decode(
    std::span<const std::uint8_t> coded) const {
  auto plain = dewhiten(coded);
  switch (fec_) {
    case Fec::kNone:
      plain.resize(payload_bits_ + 32);
      return finish_decode(std::move(plain));
    case Fec::kConvolutional: {
      const std::size_t n_info = payload_bits_ + 32;
      plain.resize(dsp::conv_encoded_bits(n_info));
      return finish_decode(dsp::conv_decode_hard(plain, n_info));
    }
  }
  return std::nullopt;
}

bool PacketCodec::decode_hard_into(std::span<const std::uint8_t> coded,
                                   std::vector<std::uint8_t>& scratch,
                                   std::vector<std::uint8_t>& payload_out)
    const {
  LSCATTER_EXPECT(coded.size() == coded_bits_,
                  "coded length must match the on-air size");
  if (fec_ != Fec::kNone) {
    auto decoded = decode(coded);
    if (!decoded) return false;
    payload_out.assign(decoded->begin(), decoded->end());
    return true;
  }
  const std::size_t n_info = payload_bits_ + 32;
  scratch.resize(n_info);  // grow-only across calls: capacity is retained
  // Raw pointers: a store through the vector's uint8_t elements may alias
  // its own data pointer, which keeps the compiler from vectorizing.
  const std::uint8_t* in = coded.data();
  const std::uint8_t* white = whitening_.data();
  std::uint8_t* out = scratch.data();
  for (std::size_t i = 0; i < n_info; ++i) {
    out[i] = static_cast<std::uint8_t>(in[i] ^ white[i]);
  }
  if (!dsp::check_crc32(scratch)) return false;
  payload_out.assign(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(
                                           payload_bits_));
  return true;
}

std::vector<std::uint8_t> PacketCodec::decode_soft_bits(
    std::span<const float> soft) const {
  LSCATTER_EXPECT(soft.size() == coded_bits_,
                  "soft-bit length must match the on-air size");
  // De-whitening in the soft domain: a whitening '1' flips the sign.
  std::vector<float> llr(soft.begin(), soft.end());
  for (std::size_t i = 0; i < llr.size(); ++i) {
    if (whitening_[i]) llr[i] = -llr[i];
  }
  const std::size_t n_info = payload_bits_ + 32;
  switch (fec_) {
    case Fec::kNone: {
      std::vector<std::uint8_t> bits(n_info);
      for (std::size_t i = 0; i < bits.size(); ++i) {
        bits[i] = llr[i] >= 0.0f ? 1 : 0;
      }
      return bits;
    }
    case Fec::kConvolutional: {
      llr.resize(dsp::conv_encoded_bits(n_info));
      return dsp::conv_decode_soft(llr, n_info);
    }
  }
  return {};
}

std::optional<std::vector<std::uint8_t>> PacketCodec::decode_soft(
    std::span<const float> soft) const {
  return finish_decode(decode_soft_bits(soft));
}

std::vector<std::vector<std::uint8_t>> split_bits(
    std::span<const std::uint8_t> bits, std::size_t chunk) {
  LSCATTER_EXPECT(chunk > 0, "chunk size must be positive");
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t pos = 0; pos < bits.size(); pos += chunk) {
    const std::size_t n = std::min(chunk, bits.size() - pos);
    std::vector<std::uint8_t> c(bits.begin() + pos, bits.begin() + pos + n);
    while (c.size() < chunk) {
      c.push_back(static_cast<std::uint8_t>(c.size() % 2));
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<std::uint8_t> join_bits(
    const std::vector<std::vector<std::uint8_t>>& chunks,
    std::size_t total) {
  std::vector<std::uint8_t> out;
  out.reserve(total);
  for (const auto& c : chunks) {
    for (const std::uint8_t b : c) {
      if (out.size() >= total) return out;
      out.push_back(b);
    }
  }
  return out;
}

}  // namespace lscatter::core
