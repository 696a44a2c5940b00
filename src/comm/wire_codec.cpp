#include "zipflm/comm/wire_codec.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "comm_internal.hpp"
#include "zipflm/support/error.hpp"
#include "zipflm/tensor/cast.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {
namespace {

// Scratch reused across hops.  Collectives run one per rank thread, so
// thread_local keeps the hot path allocation-free after warmup.
std::vector<float>& float_scratch() {
  thread_local std::vector<float> s;
  return s;
}

// ---------------------------------------------------------------------------
// INT8 gradient codec: [f32 scale][n int8 quants]
// ---------------------------------------------------------------------------

// Conversions stay scalar on purpose: the codec runs inside a
// collective (possibly on a comm thread), where fanning out to the
// ThreadPool would deadlock overlap and break per-rank determinism.
bool all_finite(std::span<const float> data) {
  for (const float v : data) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

bool stage_floats(std::span<const Half> data, std::vector<float>& out) {
  out.resize(data.size());
  bool finite = true;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Half h = data[i];
    if (h.is_nan() || h.is_inf()) finite = false;
    out[i] = static_cast<float>(h);
  }
  return finite;
}

void encode_int8_from_floats(std::span<const float> data, bool finite,
                             std::vector<std::byte>& out) {
  const std::size_t n = data.size();
  out.resize(encoded_chunk_bytes(n));
  float scale = 0.0f;
  if (!finite) {
    scale = std::numeric_limits<float>::quiet_NaN();
  } else if (n > 0) {
    scale = simd::max_abs(data.data(), n) / 127.0f;
  }
  std::memcpy(out.data(), &scale, 4);
  if (!finite || scale == 0.0f) {
    std::memset(out.data() + 4, 0, n);
  } else {
    int8_quantize(data.data(), n, scale,
                  reinterpret_cast<std::int8_t*>(out.data() + 4));
  }
}

float int8_scale(std::span<const std::byte> in, std::size_t n) {
  ZIPFLM_CHECK(in.size() == encoded_chunk_bytes(n),
               "wire codec: int8 payload size mismatch");
  float scale = 0.0f;
  std::memcpy(&scale, in.data(), 4);
  return scale;
}

void decode_int8(std::span<const std::byte> in, std::span<float> out) {
  const float scale = int8_scale(in, out.size());
  // q * NaN = NaN and q * 0 = 0, so the degenerate scales need no
  // special casing on decode.
  int8_dequantize(reinterpret_cast<const std::int8_t*>(in.data() + 4),
                  out.size(), scale, out.data());
}

void decode_int8(std::span<const std::byte> in, std::span<Half> out) {
  const float scale = int8_scale(in, out.size());
  auto& tmp = float_scratch();
  tmp.resize(out.size());
  int8_dequantize(reinterpret_cast<const std::int8_t*>(in.data() + 4),
                  out.size(), scale, tmp.data());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = Half(tmp[i]);
}

}  // namespace

const char* wire_codec_name(WireCodec codec) noexcept {
  switch (codec) {
    case WireCodec::None:
      return "none";
    case WireCodec::Int8:
      return "int8";
  }
  return "unknown";
}

void encode_grad_chunk(WireCodec codec, std::span<const float> data,
                       std::vector<std::byte>& out) {
  ZIPFLM_CHECK(codec == WireCodec::Int8,
               "wire codec: cannot encode with codec None");
  encode_int8_from_floats(data, all_finite(data), out);
}

void encode_grad_chunk(WireCodec codec, std::span<const Half> data,
                       std::vector<std::byte>& out) {
  ZIPFLM_CHECK(codec == WireCodec::Int8,
               "wire codec: cannot encode with codec None");
  auto& tmp = float_scratch();
  const bool finite = stage_floats(data, tmp);
  encode_int8_from_floats(std::span<const float>(tmp), finite, out);
}

void decode_grad_chunk(WireCodec codec, std::span<const std::byte> in,
                       std::span<float> out) {
  ZIPFLM_CHECK(codec == WireCodec::Int8,
               "wire codec: cannot decode with codec None");
  decode_int8(in, out);
}

void decode_grad_chunk(WireCodec codec, std::span<const std::byte> in,
                       std::span<Half> out) {
  ZIPFLM_CHECK(codec == WireCodec::Int8,
               "wire codec: cannot decode with codec None");
  decode_int8(in, out);
}

void record_codec_traffic(TrafficLedger& ledger, std::uint64_t logical_bytes,
                          std::uint64_t wire_bytes) {
  TrafficLedger delta;
  delta.codec = {logical_bytes, wire_bytes};
  ledger += delta;
  comm_internal::mirror(delta);
}

}  // namespace zipflm
