#include "zipflm/tensor/cast.hpp"

#include <algorithm>
#include <cmath>

#include "zipflm/support/error.hpp"
#include "zipflm/support/thread_pool.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {

namespace {

// Compression-scaling casts sit on the exchange critical path (ZipCCL's
// observation: the payload transform must be parallel or it becomes the
// collective's bottleneck), so they are vectorized and pool-chunked.
// Chunks are independent elements — any split gives the same bytes.
constexpr std::size_t kCastGrain = 1 << 14;

void compress_span_scalar(const float* src, float scale, Half* dst,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = Half(src[i] * scale);
}

void decompress_span_scalar(const Half* src, float inv, float* dst,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]) * inv;
  }
}

void half_accumulate_scalar(Half* mine, const Half* left, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    mine[j] = Half(static_cast<float>(mine[j]) + static_cast<float>(left[j]));
  }
}

#if defined(ZIPFLM_SIMD_AVX2) && defined(__F16C__)

// Hardware F16C round-to-nearest-even matches the software converter
// bit for bit on every non-NaN input (including subnormals and the
// 65520 overflow-to-inf threshold) — the determinism suite proves this
// on the machine at hand.  NaN payloads differ (the software path
// canonicalizes, VCVTPS2PH passes mantissa bits through), so blocks
// containing a NaN take the scalar path.
void compress_span(const float* src, float scale, Half* dst, std::size_t n) {
  if (simd::active_backend() != simd::Backend::kNative) {
    compress_span_scalar(src, scale, dst, n);
    return;
  }
  const __m256 sv = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(src + i), sv);
    const __m256 nan = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
    if (_mm256_movemask_ps(nan) != 0) {
      compress_span_scalar(src + i, scale, dst + i, 8);
      continue;
    }
    const __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  compress_span_scalar(src + i, scale, dst + i, n - i);
}

void decompress_span(const Half* src, float inv, float* dst, std::size_t n) {
  if (simd::active_backend() != simd::Backend::kNative) {
    decompress_span_scalar(src, inv, dst, n);
    return;
  }
  const __m256 iv = _mm256_set1_ps(inv);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m256 f = _mm256_cvtph_ps(h);
    const __m256 nan = _mm256_cmp_ps(f, f, _CMP_UNORD_Q);
    if (_mm256_movemask_ps(nan) != 0) {
      // VCVTPH2PS quiets signalling NaNs; the software path preserves
      // the payload.  Keep the software semantics.
      decompress_span_scalar(src + i, inv, dst + i, 8);
      continue;
    }
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(f, iv));
  }
  decompress_span_scalar(src + i, inv, dst + i, n - i);
}

void half_accumulate_span(Half* mine, const Half* left, std::size_t n) {
  if (simd::active_backend() != simd::Backend::kNative) {
    half_accumulate_scalar(mine, left, n);
    return;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 a = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(mine + i)));
    const __m256 b = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(left + i)));
    const __m256 s = _mm256_add_ps(a, b);
    // A NaN in either input (a corrupted wire chunk) or born from
    // inf + -inf: take the scalar path so the software converter's
    // payload canonicalization is what lands on the wire.
    const __m256 nan = _mm256_cmp_ps(s, s, _CMP_UNORD_Q);
    if (_mm256_movemask_ps(nan) != 0) {
      half_accumulate_scalar(mine + i, left + i, 8);
      continue;
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(mine + i),
                     _mm256_cvtps_ph(s, _MM_FROUND_TO_NEAREST_INT));
  }
  half_accumulate_scalar(mine + i, left + i, n - i);
}

#else

void compress_span(const float* src, float scale, Half* dst, std::size_t n) {
  compress_span_scalar(src, scale, dst, n);
}

void decompress_span(const Half* src, float inv, float* dst, std::size_t n) {
  decompress_span_scalar(src, inv, dst, n);
}

void half_accumulate_span(Half* mine, const Half* left, std::size_t n) {
  half_accumulate_scalar(mine, left, n);
}

#endif

}  // namespace

void half_accumulate(Half* mine, const Half* left, std::size_t n) {
  half_accumulate_span(mine, left, n);
}

void compress_fp16(std::span<const float> src, float scale,
                   std::vector<Half>& dst) {
  dst.resize(src.size());
  compress_fp16(src, scale, std::span<Half>(dst));
}

void compress_fp16(std::span<const float> src, float scale,
                   std::span<Half> dst) {
  ZIPFLM_CHECK(dst.size() == src.size(),
               "compress_fp16 destination size mismatch");
  const float* s = src.data();
  Half* d = dst.data();
  ThreadPool::global().parallel_chunks(
      src.size(),
      [&](std::size_t b, std::size_t e) {
        compress_span(s + b, scale, d + b, e - b);
      },
      kCastGrain);
}

void decompress_fp16(std::span<const Half> src, float scale,
                     std::vector<float>& dst) {
  dst.resize(src.size());
  decompress_fp16(src, scale, std::span<float>(dst));
}

void decompress_fp16(std::span<const Half> src, float scale,
                     std::span<float> dst) {
  ZIPFLM_CHECK(dst.size() == src.size(),
               "decompress_fp16 destination size mismatch");
  const float inv = 1.0f / scale;
  const Half* s = src.data();
  float* d = dst.data();
  ThreadPool::global().parallel_chunks(
      src.size(),
      [&](std::size_t b, std::size_t e) {
        decompress_span(s + b, inv, d + b, e - b);
      },
      kCastGrain);
}

void fp16_round_trip(std::span<float> values, float scale) {
  const float inv = 1.0f / scale;
  for (float& v : values) {
    v = static_cast<float>(Half(v * scale)) * inv;
  }
}

CastLossStats measure_cast_loss(std::span<const float> values, float scale) {
  CastLossStats stats;
  stats.total = values.size();
  const float inv = 1.0f / scale;
  for (float v : values) {
    const Half h(v * scale);
    const float back = static_cast<float>(h) * inv;
    if (v != 0.0f && back == 0.0f) {
      ++stats.flushed_to_zero;
    } else if (std::isfinite(v * scale) && h.is_inf()) {
      ++stats.overflowed;
    } else if (v != 0.0f && std::isfinite(back)) {
      stats.max_rel_error = std::max(
          stats.max_rel_error,
          static_cast<double>(std::fabs(back - v) / std::fabs(v)));
    }
  }
  return stats;
}

}  // namespace zipflm
