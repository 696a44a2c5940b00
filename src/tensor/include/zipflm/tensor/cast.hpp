// FP32 <-> FP16 buffer conversion with compression-scaling, and the
// FP32 <-> INT8 kernels of the Int8 gradient wire codec.
//
// Section III-C of the paper: before down-casting a gradient tensor to
// binary16 for the wire, multiply by a scale factor F (256/512/1024) so
// small gradients do not flush to zero; divide by F after up-casting on
// the receiving side.  These are the numeric primitives; the wire
// plumbing lives in zipflm::core::CompressedComm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "zipflm/tensor/half.hpp"

namespace zipflm {

/// dst[i] = half(src[i] * scale).  dst is resized to match.
void compress_fp16(std::span<const float> src, float scale,
                   std::vector<Half>& dst);

/// In-place variant: dst must already hold src.size() halves.  Lets a
/// caller down-cast into a reused wire buffer without resizing it.
void compress_fp16(std::span<const float> src, float scale,
                   std::span<Half> dst);

/// dst[i] = float(src[i]) / scale.  dst is resized to match.
void decompress_fp16(std::span<const Half> src, float scale,
                     std::vector<float>& dst);

/// In-place variant: dst must already hold src.size() floats.  Lets a
/// caller up-cast straight into a gradient buffer without a staging
/// copy (identical bytes to the vector overload).
void decompress_fp16(std::span<const Half> src, float scale,
                     std::span<float> dst);

/// Round-trip a float buffer through scaled binary16 in place —
/// the exact value the receiving rank would observe.
void fp16_round_trip(std::span<float> values, float scale);

/// mine[i] = half(float(mine[i]) + float(left[i])) — the per-hop
/// accumulate of an FP16-wire ring allreduce (sum in FP32, store the
/// running partial back to binary16).  Single-threaded on purpose: it
/// runs inside a collective, where the caller owns the threading.
void half_accumulate(Half* mine, const Half* left, std::size_t n);

/// dst[i] = clamp(nearbyint(src[i] / scale), -127, 127).
/// Preconditions: scale is positive and finite, src is finite, and
/// |src[i]| / scale stays well below 2^31 (the Int8 codec derives scale
/// as max|src| / 127, which guarantees it).  Uses only exactly-rounded
/// primitives (div, round-to-nearest-even, int conversion), so the
/// vector path is bitwise identical to the scalar one, including under
/// the `ZIPFLM_SIMD=scalar` override.  Single-threaded, like
/// half_accumulate.
void int8_quantize(const float* src, std::size_t n, float scale,
                   std::int8_t* dst);

/// dst[i] = float(q[i]) * scale (exactly-rounded multiply).
void int8_dequantize(const std::int8_t* q, std::size_t n, float scale,
                     float* dst);

/// Statistics describing what a down-cast would do to a buffer; used by
/// tests and by the compression-accuracy experiment.
struct CastLossStats {
  std::size_t total = 0;
  std::size_t flushed_to_zero = 0;  ///< nonzero values that became zero
  std::size_t overflowed = 0;       ///< finite values that became inf
  double max_rel_error = 0.0;       ///< over values that survived
};

CastLossStats measure_cast_loss(std::span<const float> values, float scale);

}  // namespace zipflm
