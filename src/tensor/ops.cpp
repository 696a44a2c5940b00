#include "zipflm/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "zipflm/support/thread_pool.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {

namespace {
// Task block sizes: the unit of work handed to the thread pool.  Each
// output element belongs to exactly one block, so the accumulation
// order per element is fixed regardless of the worker count.
constexpr Index kBlockM = 32;
constexpr Index kBlockN = 64;

// B is consumed in (kBlockK x kBlockN) tiles copied into contiguous
// per-thread scratch before the inner loops run.  The original layout
// strides ldb floats between consecutive k rows (7 KiB for a 1792-wide
// weight matrix) — past the hardware prefetchers' page limit, so every
// k step of the unpacked kernel ate a cache/TLB miss.  Packing is a
// pure copy: values and accumulation order are untouched.  64 x 64
// keeps the whole tile (16 KiB) resident in L1 across every row pass,
// where the previous 256 x 128 tile (128 KiB) was re-streamed from L2
// once per row tile.
constexpr Index kBlockK = 64;

// Elementwise sweeps hand the pool chunks of whole elements; any chunk
// boundary gives the same bits, so only dispatch overhead matters.
constexpr std::size_t kElementGrain = 1 << 14;

struct GemmDims {
  Index m, n, k;
};

GemmDims validate_gemm(const Tensor& a, bool trans_a, const Tensor& b,
                       bool trans_b, const Tensor& c) {
  ZIPFLM_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
               "gemm requires matrices");
  const Index m = trans_a ? a.cols() : a.rows();
  const Index ka = trans_a ? a.rows() : a.cols();
  const Index kb = trans_b ? b.cols() : b.rows();
  const Index n = trans_b ? b.rows() : b.cols();
  ZIPFLM_CHECK(ka == kb, "gemm inner dimensions must agree");
  ZIPFLM_CHECK(c.rows() == m && c.cols() == n,
               "gemm output shape must be m x n");
  return {m, n, ka};
}

// ---------------------------------------------------------------------------
// Non-transposed-B panels: C[i, j..] accumulates alpha * op(A)(i, k) *
// B[k, j..] in ascending k order, vectorized across the j (column)
// dimension.  Each lane is a distinct output element performing the
// exact mul-then-add sequence the original scalar kernel performed, so
// results are bitwise identical to the scalar tile at any register
// width — the PR-1 batch-invariance contract rides on this.
// ---------------------------------------------------------------------------

/// RT fixed output rows x CP register-widths of columns.  A1 marks the
/// ubiquitous alpha == 1 case: multiplying by 1.0f is a bitwise no-op,
/// so skipping it keeps results identical while shedding a scalar
/// multiply per (row, k) step of the inner loop.  TA lifts the operand
/// layout choice to compile time so the inner loop carries no branch.
template <class V, Index RT, Index CP, bool A1, bool TA>
inline void gemm_tile_nt(const float* a, Index lda, const float* b, Index ldb,
                         float* c, Index ldc, float alpha, Index i, Index j,
                         Index k) {
  using R = typename V::Reg;
  constexpr Index W = static_cast<Index>(V::kWidth);
  R acc[RT][CP];
  for (Index r = 0; r < RT; ++r) {
    for (Index p = 0; p < CP; ++p) {
      acc[r][p] = V::load(c + (i + r) * ldc + j + p * W);
    }
  }
  for (Index kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb + j;
    for (Index r = 0; r < RT; ++r) {
      float av = TA ? a[kk * lda + i + r] : a[(i + r) * lda + kk];
      if constexpr (!A1) av *= alpha;
      const R bc = V::set1(av);
      for (Index p = 0; p < CP; ++p) {
        acc[r][p] = V::add(acc[r][p], V::mul(bc, V::load(brow + p * W)));
      }
    }
  }
  for (Index r = 0; r < RT; ++r) {
    for (Index p = 0; p < CP; ++p) {
      V::store(c + (i + r) * ldc + j + p * W, acc[r][p]);
    }
  }
}

template <class V, Index RT, bool A1, bool TA>
inline void gemm_rows_nt(const float* a, Index lda, const float* b, Index ldb,
                         float* c, Index ldc, float alpha, Index i, Index j0,
                         Index j1, Index k) {
  constexpr Index W = static_cast<Index>(V::kWidth);
  Index j = j0;
  for (; j + 2 * W <= j1; j += 2 * W) {
    gemm_tile_nt<V, RT, 2, A1, TA>(a, lda, b, ldb, c, ldc, alpha, i, j, k);
  }
  for (; j + W <= j1; j += W) {
    gemm_tile_nt<V, RT, 1, A1, TA>(a, lda, b, ldb, c, ldc, alpha, i, j, k);
  }
  for (; j < j1; ++j) {
    gemm_tile_nt<simd::ScalarOps, RT, 1, A1, TA>(a, lda, b, ldb, c, ldc,
                                                 alpha, i, j, k);
  }
}

/// One (rows x columns) output block, with B consumed through packed
/// k-chunks.  Accumulators spill to C at chunk boundaries — an exact
/// store/reload — so the per-element sum is still one ascending-k
/// sequence, bitwise identical to the unchunked kernel.  The main row
/// tile covers 8 rows so every packed B element loaded from L1 feeds 8
/// outputs; 8 is also the exact row count of the recurrent forward
/// gemms, which previously split into two 4-row passes.
template <class V, bool A1, bool TA>
void gemm_block_nt(const float* a, Index lda, const float* b, Index ldb,
                   float* c, Index ldc, float alpha, Index i0, Index i1,
                   Index j0, Index j1, Index k) {
  const Index tw = j1 - j0;
  thread_local std::vector<float> pack;
  pack.resize(static_cast<std::size_t>(kBlockK) * static_cast<std::size_t>(tw));
  float* tile = pack.data();
  float* c_off = c + j0;
  for (Index k0 = 0; k0 < k; k0 += kBlockK) {
    const Index kc = std::min(kBlockK, k - k0);
    for (Index kk = 0; kk < kc; ++kk) {
      std::memcpy(tile + kk * tw, b + (k0 + kk) * ldb + j0,
                  static_cast<std::size_t>(tw) * sizeof(float));
    }
    const float* a_off = TA ? a + k0 * lda : a + k0;
    Index i = i0;
    for (; i + 8 <= i1; i += 8) {
      gemm_rows_nt<V, 8, A1, TA>(a_off, lda, tile, tw, c_off, ldc, alpha, i,
                                 0, tw, kc);
    }
    for (; i + 4 <= i1; i += 4) {
      gemm_rows_nt<V, 4, A1, TA>(a_off, lda, tile, tw, c_off, ldc, alpha, i,
                                 0, tw, kc);
    }
    for (; i < i1; ++i) {
      gemm_rows_nt<V, 1, A1, TA>(a_off, lda, tile, tw, c_off, ldc, alpha, i,
                                 0, tw, kc);
    }
  }
}

// ---------------------------------------------------------------------------
// Transposed-B panels: element (i, j) is a dot product of two
// contiguous rows, accumulated with the fixed 8-lane interleave of
// simd::dot_span — the k order per element is a property of the
// element, not of tiling or ISA, so any backend produces the same bits.
// j is the outer loop so B row j is streamed from memory once and then
// served from L1 for every A row of the block (m is small in the
// backward d-state gemms; a transpose-packing variant measured slower
// because the pack cost cannot amortize over so few rows).
// ---------------------------------------------------------------------------

/// JT B-rows at a time sharing each A load: per 8-element block the A
/// vector is fetched once and multiplied into JT independent Acc8
/// accumulators, one per output column.  Each column's accumulator
/// performs the exact lane sequence dot_span performs for that (a, b)
/// pair — same 8-lane interleave, same tail fold, same combine tree —
/// so the result is bit-for-bit what the one-column kernel produced
/// while the A row is streamed JT times less often.
template <class V, Index JT>
inline void gemm_dots_tb(const float* arow, const float* b, Index ldb,
                         float* cout, Index ldc_unused, float alpha,
                         std::size_t k) {
  (void)ldc_unused;
  simd::Acc8<V> acc[JT];
  for (Index t = 0; t < JT; ++t) acc[t].fill(0.0f);
  const std::size_t k8 = k & ~(simd::kAccLanes - 1);
  for (std::size_t kk = 0; kk < k8; kk += simd::kAccLanes) {
    for (std::size_t p = 0; p < simd::Acc8<V>::kPacks; ++p) {
      const typename V::Reg av = V::load(arow + kk + p * V::kWidth);
      for (Index t = 0; t < JT; ++t) {
        acc[t].acc[p] = V::add(
            acc[t].acc[p],
            V::mul(av, V::load(b + static_cast<std::size_t>(t) *
                                       static_cast<std::size_t>(ldb) +
                               kk + p * V::kWidth)));
      }
    }
  }
  for (Index t = 0; t < JT; ++t) {
    float lanes[simd::kAccLanes];
    acc[t].store(lanes);
    const float* brow =
        b + static_cast<std::size_t>(t) * static_cast<std::size_t>(ldb);
    for (std::size_t j = 0; j < k - k8; ++j) {
      lanes[j] += arow[k8 + j] * brow[k8 + j];
    }
    cout[t] += alpha * simd::combine_sum8(lanes);
  }
}

template <class V>
void gemm_panel_tb(const float* a, Index lda, const float* b, Index ldb,
                   float* c, Index ldc, float alpha, Index i0, Index i1,
                   Index j0, Index j1, Index k) {
  Index j = j0;
  for (; j + 4 <= j1; j += 4) {
    const float* brows = b + j * ldb;
    for (Index i = i0; i < i1; ++i) {
      gemm_dots_tb<V, 4>(a + i * lda, brows, ldb, c + i * ldc + j, ldc, alpha,
                         static_cast<std::size_t>(k));
    }
  }
  for (; j < j1; ++j) {
    const float* brow = b + j * ldb;
    for (Index i = i0; i < i1; ++i) {
      c[i * ldc + j] += alpha * simd::dot_span<V>(a + i * lda, brow,
                                                  static_cast<std::size_t>(k));
    }
  }
}

/// Rare shape (both operands transposed): no caller uses it today, so a
/// plain scalar loop with ascending-k accumulation is enough.
void gemm_panel_generic(const Tensor& a, bool trans_a, const Tensor& b,
                        bool trans_b, Tensor& c, float alpha, Index i0,
                        Index i1, Index j0, Index j1, Index k) {
  for (Index i = i0; i < i1; ++i) {
    for (Index j = j0; j < j1; ++j) {
      float acc = c(i, j);
      for (Index kk = 0; kk < k; ++kk) {
        const float av = trans_a ? a(kk, i) : a(i, kk);
        const float bv = trans_b ? b(j, kk) : b(kk, j);
        acc += alpha * av * bv;
      }
      c(i, j) = acc;
    }
  }
}

}  // namespace

void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha, float beta) {
  const auto [m, n, k] = validate_gemm(a, trans_a, b, trans_b, c);
  ZIPFLM_ASSERT(&a != &c && &b != &c, "gemm output must not alias inputs");

  if (beta == 0.0f) {
    c.zero();
  } else if (beta != 1.0f) {
    scale(c, beta);
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* cp = c.data().data();
  const Index lda = a.cols();
  const Index ldb = b.cols();
  const Index ldc = c.cols();
  const bool native = simd::active_backend() == simd::Backend::kNative;

  // Parallelize over row x column blocks: each output element is written
  // by exactly one task, so accumulation order per element is fixed
  // regardless of the worker count.
  const Index row_blocks = (m + kBlockM - 1) / kBlockM;
  const Index col_blocks = (n + kBlockN - 1) / kBlockN;
  ThreadPool::global().parallel_for(
      static_cast<std::size_t>(row_blocks * col_blocks),
      [&, m, n, k](std::size_t t) {
        const Index i0 = static_cast<Index>(t) / col_blocks * kBlockM;
        const Index i1 = std::min(m, i0 + kBlockM);
        const Index j0 = static_cast<Index>(t) % col_blocks * kBlockN;
        const Index j1 = std::min(n, j0 + kBlockN);
        if (!trans_b) {
          const auto block_nt = [&](auto v, auto a1, auto ta) {
            gemm_block_nt<typename decltype(v)::type, decltype(a1)::value,
                          decltype(ta)::value>(ap, lda, bp, ldb, cp, ldc,
                                               alpha, i0, i1, j0, j1, k);
          };
          const auto with_flags = [&](auto v) {
            if (alpha == 1.0f) {
              if (trans_a) {
                block_nt(v, std::true_type{}, std::true_type{});
              } else {
                block_nt(v, std::true_type{}, std::false_type{});
              }
            } else if (trans_a) {
              block_nt(v, std::false_type{}, std::true_type{});
            } else {
              block_nt(v, std::false_type{}, std::false_type{});
            }
          };
          if (native) {
            with_flags(std::type_identity<simd::NativeOps>{});
          } else {
            with_flags(std::type_identity<simd::ScalarOps>{});
          }
        } else if (!trans_a) {
          if (native) {
            gemm_panel_tb<simd::NativeOps>(ap, lda, bp, ldb, cp, ldc, alpha,
                                           i0, i1, j0, j1, k);
          } else {
            gemm_panel_tb<simd::ScalarOps>(ap, lda, bp, ldb, cp, ldc, alpha,
                                           i0, i1, j0, j1, k);
          }
        } else {
          gemm_panel_generic(a, trans_a, b, trans_b, c, alpha, i0, i1, j0, j1,
                             k);
        }
      },
      /*grain=*/1);
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  ZIPFLM_CHECK(x.size() == y.size(), "axpy requires equal sizes");
  const float* xs = x.data().data();
  float* ys = y.data().data();
  ThreadPool::global().parallel_chunks(
      x.data().size(),
      [&](std::size_t b, std::size_t e) {
        simd::axpy(alpha, xs + b, ys + b, e - b);
      },
      kElementGrain);
}

void scale(Tensor& x, float alpha) { scale(x.data(), alpha); }

void scale(std::span<float> x, float alpha) {
  float* xs = x.data();
  ThreadPool::global().parallel_chunks(
      x.size(),
      [&](std::size_t b, std::size_t e) { simd::scale(xs + b, alpha, e - b); },
      kElementGrain);
}

namespace {
template <typename F>
void elementwise_spans(const Tensor& x, Tensor& y, F f) {
  ZIPFLM_CHECK(x.size() == y.size(), "elementwise requires equal sizes");
  const float* xs = x.data().data();
  float* ys = y.data().data();
  ThreadPool::global().parallel_chunks(
      x.data().size(),
      [&](std::size_t b, std::size_t e) { f(xs + b, ys + b, e - b); },
      kElementGrain);
}
}  // namespace

void sigmoid(const Tensor& x, Tensor& y) {
  elementwise_spans(x, y, [](const float* xs, float* ys, std::size_t n) {
    simd::sigmoid(xs, ys, n);
  });
}

void tanh_op(const Tensor& x, Tensor& y) {
  elementwise_spans(x, y, [](const float* xs, float* ys, std::size_t n) {
    simd::tanh_op(xs, ys, n);
  });
}

void relu(const Tensor& x, Tensor& y) {
  elementwise_spans(x, y, [](const float* xs, float* ys, std::size_t n) {
    simd::relu(xs, ys, n);
  });
}

void sigmoid_grad_from_output(const Tensor& y, Tensor& dy) {
  elementwise_spans(y, dy, [](const float* ys, float* ds, std::size_t n) {
    simd::sigmoid_grad(ys, ds, n);
  });
}

void tanh_grad_from_output(const Tensor& y, Tensor& dy) {
  elementwise_spans(y, dy, [](const float* ys, float* ds, std::size_t n) {
    simd::tanh_grad(ys, ds, n);
  });
}

void hadamard(const Tensor& x, const Tensor& y, Tensor& z) {
  ZIPFLM_CHECK(x.size() == y.size() && x.size() == z.size(),
               "hadamard requires equal sizes");
  const float* xs = x.data().data();
  const float* ys = y.data().data();
  float* zs = z.data().data();
  ThreadPool::global().parallel_chunks(
      x.data().size(),
      [&](std::size_t b, std::size_t e) {
        simd::hadamard(xs + b, ys + b, zs + b, e - b);
      },
      kElementGrain);
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  ZIPFLM_CHECK(logits.rank() == 2 && logits.shape() == probs.shape(),
               "softmax_rows requires matching matrices");
  const Index cols = logits.cols();
  const float* in = logits.data().data();
  float* out = probs.data().data();
  // One row is one unit of work: the max/denominator reductions use the
  // fixed 8-lane layout, so a row's bits do not depend on which thread
  // (or ISA) computes it.
  ThreadPool::global().parallel_chunks(
      static_cast<std::size_t>(logits.rows()),
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t i = rb; i < re; ++i) {
          const float* x = in + i * static_cast<std::size_t>(cols);
          float* y = out + i * static_cast<std::size_t>(cols);
          const std::size_t n = static_cast<std::size_t>(cols);
          const float mx =
              simd::reduce_max(x, n, -std::numeric_limits<float>::infinity());
          const float denom = simd::exp_sub_sum(x, y, mx, n);
          simd::scale(y, 1.0f / denom, n);
        }
      },
      /*grain=*/1);
}

void log_softmax_rows(const Tensor& logits, Tensor& log_probs) {
  ZIPFLM_CHECK(logits.rank() == 2 && logits.shape() == log_probs.shape(),
               "log_softmax_rows requires matching matrices");
  const Index cols = logits.cols();
  const float* in = logits.data().data();
  float* out = log_probs.data().data();
  ThreadPool::global().parallel_chunks(
      static_cast<std::size_t>(logits.rows()),
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t i = rb; i < re; ++i) {
          const float* x = in + i * static_cast<std::size_t>(cols);
          float* y = out + i * static_cast<std::size_t>(cols);
          const std::size_t n = static_cast<std::size_t>(cols);
          const float mx =
              simd::reduce_max(x, n, -std::numeric_limits<float>::infinity());
          // exp(x - mx) lands in the output row as scratch; the second
          // pass overwrites it with x - lse.
          const float denom = simd::exp_sub_sum(x, y, mx, n);
          const float lse = mx + std::log(denom);
          simd::sub_const(x, y, lse, n);
        }
      },
      /*grain=*/1);
}

float sum(const Tensor& x) {
  // Deliberately double precision and serial: used by statistics and
  // tests, not hot paths.
  double acc = 0.0;
  for (float v : x.data()) acc += v;
  return static_cast<float>(acc);
}

float max_abs(const Tensor& x) {
  return simd::max_abs(x.data().data(), x.data().size());
}

float l2_norm(const Tensor& x) {
  double acc = 0.0;
  for (float v : x.data()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

void gather_rows(const Tensor& table, std::span<const Index> ids, Tensor& out) {
  ZIPFLM_CHECK(table.rank() == 2 && out.rank() == 2, "gather_rows on matrices");
  ZIPFLM_CHECK(out.rows() == static_cast<Index>(ids.size()) &&
                   out.cols() == table.cols(),
               "gather_rows output shape mismatch");
  const std::size_t width = static_cast<std::size_t>(table.cols());
  const float* src = table.data().data();
  float* dst = out.data().data();
  const Index vocab = table.rows();
  ThreadPool::global().parallel_chunks(
      ids.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          ZIPFLM_ASSERT(ids[i] >= 0 && ids[i] < vocab,
                        "gather id out of vocabulary range");
          std::copy_n(src + static_cast<std::size_t>(ids[i]) * width, width,
                      dst + i * width);
        }
      },
      /*grain=*/16);
}

void scatter_add_rows(const Tensor& grad, std::span<const Index> ids,
                      Tensor& table) {
  ZIPFLM_CHECK(grad.rank() == 2 && table.rank() == 2,
               "scatter_add_rows on matrices");
  ZIPFLM_CHECK(grad.rows() == static_cast<Index>(ids.size()) &&
                   grad.cols() == table.cols(),
               "scatter_add_rows gradient shape mismatch");
  // Serial on purpose: ids may repeat, so rows of `table` are not
  // disjoint across tokens and the ascending token order is the
  // documented accumulation contract.
  const std::size_t width = static_cast<std::size_t>(grad.cols());
  const float* src = grad.data().data();
  float* dst = table.data().data();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ZIPFLM_ASSERT(ids[i] >= 0 && ids[i] < table.rows(),
                  "scatter id out of vocabulary range");
    simd::add_inplace(dst + static_cast<std::size_t>(ids[i]) * width,
                      src + i * width, width);
  }
}

void add_bias_rows(Tensor& y, const Tensor& bias) {
  ZIPFLM_CHECK(y.rank() == 2 && bias.size() == y.cols(),
               "bias length must equal column count");
  const float* b = bias.data().data();
  const std::size_t width = static_cast<std::size_t>(y.cols());
  float* ys = y.data().data();
  ThreadPool::global().parallel_chunks(
      static_cast<std::size_t>(y.rows()),
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t i = rb; i < re; ++i) {
          simd::add_inplace(ys + i * width, b, width);
        }
      },
      /*grain=*/8);
}

void bias_grad(const Tensor& dy, Tensor& db) {
  ZIPFLM_CHECK(dy.rank() == 2 && db.size() == dy.cols(),
               "bias grad length must equal column count");
  // Chunk the *columns*: every element of db accumulates its column in
  // ascending row order no matter how many workers run.
  float* b = db.data().data();
  const float* src = dy.data().data();
  const std::size_t width = static_cast<std::size_t>(dy.cols());
  const std::size_t rows = static_cast<std::size_t>(dy.rows());
  ThreadPool::global().parallel_chunks(
      width,
      [&](std::size_t cb, std::size_t ce) {
        for (std::size_t i = 0; i < rows; ++i) {
          simd::add_inplace(b + cb, src + i * width + cb, ce - cb);
        }
      },
      /*grain=*/512);
}

void clip(Tensor& x, float limit) {
  ZIPFLM_CHECK(limit > 0.0f, "clip limit must be positive");
  float* xs = x.data().data();
  ThreadPool::global().parallel_chunks(
      x.data().size(),
      [&](std::size_t b, std::size_t e) { simd::clip(xs + b, limit, e - b); },
      kElementGrain);
}

}  // namespace zipflm
