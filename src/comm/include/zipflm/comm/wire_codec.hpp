#pragma once

// Wire codec for gradient payloads.
//
// The paper stops compression-scaling at FP16.  One codec goes further:
// lossy INT8 quantization of each ring-allreduce chunk with one FP32
// scale per chunk (scale = max|x| / 127, round-to-nearest-even).  An
// n-element chunk always encodes to exactly 4 + n bytes, so both ends
// of a ring hop know its size without exchanging it.
//
// Determinism rules (see DESIGN.md):
//  * the encoder is a pure function of the input bytes — identical
//    chunks encode to identical bytes on every rank, every backend,
//    and every SIMD dispatch (the quantize kernels are bitwise
//    identical to their scalar fallbacks);
//  * decode(encode(x)) depends only on x.  A chunk containing any
//    non-finite value encodes as scale = NaN with zero quants and
//    decodes to all-NaN, preserving the lockstep overflow-skip
//    behaviour of fault-injected runs.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "zipflm/comm/ledger.hpp"
#include "zipflm/tensor/half.hpp"
#include "zipflm/tensor/tensor.hpp"

namespace zipflm {

/// Gradient wire codec applied per ring-allreduce hop.  Negotiated per
/// collective in the wire header — mismatched ranks fault loudly
/// instead of decoding garbage.
enum class WireCodec : std::uint8_t {
  None = 0,  ///< raw element bytes (FP32 or FP16 as staged)
  Int8 = 1,  ///< lossy INT8 with per-chunk FP32 scale
};

const char* wire_codec_name(WireCodec codec) noexcept;

// ---------------------------------------------------------------------------
// Gradient chunk codec
// ---------------------------------------------------------------------------

/// Bytes an n-element chunk encodes to: the FP32 scale, then one quant
/// per element.
constexpr std::size_t encoded_chunk_bytes(std::size_t n) noexcept {
  return 4 + n;
}

/// Encodes one gradient chunk with `codec` (must not be None).  `out`
/// is replaced; the encoding is a pure function of the input bytes.
void encode_grad_chunk(WireCodec codec, std::span<const float> data,
                       std::vector<std::byte>& out);
void encode_grad_chunk(WireCodec codec, std::span<const Half> data,
                       std::vector<std::byte>& out);

/// Decodes one encoded chunk into `out` (whose size fixes the element
/// count): q * scale (Half: rounded to nearest even).  Throws Error
/// when the encoded bytes do not match `out.size()` elements.
void decode_grad_chunk(WireCodec codec, std::span<const std::byte> in,
                       std::span<float> out);
void decode_grad_chunk(WireCodec codec, std::span<const std::byte> in,
                       std::span<Half> out);

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

/// Books one coded payload into the ledger's codec row and mirrors it
/// into the global obs counters, updating the "comm/compression_ratio"
/// gauge (logical / wire of this payload).
void record_codec_traffic(TrafficLedger& ledger, std::uint64_t logical_bytes,
                          std::uint64_t wire_bytes);

}  // namespace zipflm
