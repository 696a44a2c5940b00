// Bitwise-determinism contract of the vectorized kernel substrate:
// every dispatched kernel must produce the same bytes regardless of the
// worker count (chunking must not change any per-element operation
// order) and regardless of the SIMD backend (the scalar fallback is an
// exact twin of the vector path, including the fixed 8-lane reduction
// layout and the min/max NaN semantics).  These tests run the hot
// kernels under {1 thread, 4 threads} x {native, scalar} and require
// byte-identical results, which is what makes training runs
// reproducible across machines and ZIPFLM_THREADS settings.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/exchange.hpp"
#include "zipflm/core/grad_sync.hpp"
#include "zipflm/nn/param.hpp"
#include "zipflm/support/thread_pool.hpp"
#include "zipflm/tensor/cast.hpp"
#include "zipflm/tensor/ops.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {
namespace {

struct KernelConfig {
  std::size_t threads;
  simd::Backend backend;
};

std::vector<KernelConfig> all_configs() {
  return {{1, simd::Backend::kNative},
          {4, simd::Backend::kNative},
          {1, simd::Backend::kScalar},
          {4, simd::Backend::kScalar}};
}

std::string config_name(const KernelConfig& c) {
  return std::to_string(c.threads) + "-thread " +
         (c.backend == simd::Backend::kNative ? "native" : "scalar");
}

/// Runs fn under every (threads, backend) configuration and checks the
/// produced byte vectors are identical to the first configuration's.
/// Restores the default pool and backend afterwards.
template <class Fn>
void expect_identical_bytes(const Fn& fn) {
  const auto configs = all_configs();
  std::vector<unsigned char> reference;
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    const KernelConfig& c = configs[ci];
    ThreadPool::set_global_threads(c.threads);
    simd::set_backend(c.backend);
    const std::vector<unsigned char> got = fn();
    if (ci == 0) {
      reference = got;
      EXPECT_FALSE(reference.empty());
      continue;
    }
    ASSERT_EQ(got.size(), reference.size());
    EXPECT_EQ(0, std::memcmp(got.data(), reference.data(), got.size()))
        << "bytes diverge under " << config_name(c) << " vs "
        << config_name(configs[0]);
  }
  simd::set_backend(simd::Backend::kNative);
  ThreadPool::set_global_threads(0);
}

std::vector<unsigned char> tensor_bytes(const Tensor& t) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.data().data());
  return std::vector<unsigned char>(p, p + t.data().size() * sizeof(float));
}

void append_bytes(std::vector<unsigned char>& out, const void* p,
                  std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  out.insert(out.end(), b, b + n);
}

struct GemmDetCase {
  Index m, n, k;
  bool ta, tb;
  float alpha;
  float beta;
};

class GemmDeterminism : public ::testing::TestWithParam<GemmDetCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmDeterminism,
    ::testing::Values(
        // nt path, alpha == 1 (specialized) and alpha != 1; sizes chosen
        // to split across blocks and exercise vector + tail code.
        GemmDetCase{33, 300, 65, false, false, 1.0f, 0.0f},
        GemmDetCase{33, 300, 65, false, false, 1.5f, 1.0f},
        // k larger than one packed chunk forces accumulator spills.
        GemmDetCase{8, 160, 600, false, false, 1.0f, 0.0f},
        // trans_a still lands in the nt kernels.
        GemmDetCase{40, 130, 31, true, false, 1.0f, 0.0f},
        // transposed-B dot path (backward d-state shape: small m).
        GemmDetCase{8, 300, 129, false, true, 1.0f, 0.0f},
        GemmDetCase{17, 40, 128, false, true, 2.0f, 1.0f},
        // double-transpose generic fallback.
        GemmDetCase{6, 9, 13, true, true, 1.0f, 0.0f}));

TEST_P(GemmDeterminism, BytesStableAcrossThreadsAndBackends) {
  const auto c = GetParam();
  Rng rng(1234);
  const Tensor a = c.ta ? Tensor::randn({c.k, c.m}, rng)
                        : Tensor::randn({c.m, c.k}, rng);
  const Tensor b = c.tb ? Tensor::randn({c.n, c.k}, rng)
                        : Tensor::randn({c.k, c.n}, rng);
  const Tensor c0 = Tensor::randn({c.m, c.n}, rng);
  expect_identical_bytes([&] {
    Tensor out = c0;
    gemm(a, c.ta, b, c.tb, out, c.alpha, c.beta);
    return tensor_bytes(out);
  });
}

TEST(SoftmaxDeterminism, BytesStableAcrossThreadsAndBackends) {
  Rng rng(99);
  Tensor logits = Tensor::randn({37, 301}, rng);
  // Inject extremes so the max-subtraction and exp clamp paths run.
  logits(0, 0) = 95.0f;
  logits(1, 7) = -95.0f;
  expect_identical_bytes([&] {
    Tensor probs({37, 301});
    softmax_rows(logits, probs);
    Tensor logp({37, 301});
    log_softmax_rows(logits, logp);
    std::vector<unsigned char> out = tensor_bytes(probs);
    const auto more = tensor_bytes(logp);
    out.insert(out.end(), more.begin(), more.end());
    return out;
  });
}

TEST(LocalReduceDeterminism, BytesStableAcrossThreadsAndBackends) {
  // Duplicated ids in scattered order: the reduction must accumulate
  // each word's rows in ascending token position regardless of how the
  // unique rows are chunked across workers.
  Rng rng(7);
  const Index tokens = 777;
  const Index dim = 96;
  const Tensor delta = Tensor::randn({tokens, dim}, rng);
  std::vector<Index> ids(static_cast<std::size_t>(tokens));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<Index>((i * 31 + i * i * 7) % 53);
  }
  expect_identical_bytes([&] {
    std::vector<Index> unique_ids;
    Tensor reduced;
    local_reduce_by_word(ids, delta, unique_ids, reduced);
    std::vector<unsigned char> out;
    append_bytes(out, unique_ids.data(), unique_ids.size() * sizeof(Index));
    const auto more = tensor_bytes(reduced);
    out.insert(out.end(), more.begin(), more.end());
    return out;
  });
}

TEST(CastDeterminism, EdgeValuesMatchSoftwareHalf) {
  // Values straddling every binary16 edge: subnormal magnitudes, the
  // largest finite half (65504) and first overflow, round-to-nearest-even
  // ties, signed zero, infinities and NaN.  The hardware (F16C) cast must
  // produce the same bits as the software Half reference for all of
  // them, under any thread count.
  std::vector<float> edge = {
      0.0f,        -0.0f,       1.0f,          -1.0f,
      65504.0f,    65519.9f,    65520.0f,      -65520.0f,
      70000.0f,    1e-8f,       5.96046e-8f,   -5.96046e-8f,
      6.09756e-5f, 6.10352e-5f, 1.00048828f,   1.00097656f,
      0.333333f,   -2.71828f,   3.14159e4f,    -1.17549e-38f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN()};
  // Pad out past the vector width with a deterministic sweep so the
  // packed lanes, not just the scalar tail, see ordinary values too.
  for (int i = 0; i < 4096; ++i) {
    edge.push_back(std::ldexp(1.0f + 0.001f * static_cast<float>(i % 997),
                              (i % 41) - 20));
  }
  const float scale = 8.0f;
  expect_identical_bytes([&] {
    std::vector<Half> packed(edge.size());
    compress_fp16(edge, scale, packed);
    std::vector<float> restored(edge.size());
    decompress_fp16(packed, scale, restored);
    std::vector<unsigned char> out;
    append_bytes(out, packed.data(), packed.size() * sizeof(Half));
    append_bytes(out, restored.data(), restored.size() * sizeof(float));
    return out;
  });
  // Spot-check the hardware path against the software reference
  // explicitly (expect_identical_bytes already compared native vs
  // scalar, which routes through Half::from_float).
  for (float v : edge) {
    std::vector<float> one = {v};
    std::vector<Half> hw(1);
    simd::set_backend(simd::Backend::kNative);
    compress_fp16(one, 1.0f, hw);
    const Half sw(v);
    EXPECT_EQ(hw[0].bits(), sw.bits()) << "value " << v;
  }
  simd::set_backend(simd::Backend::kNative);
  ThreadPool::set_global_threads(0);
}

TEST(ElementwiseDeterminism, ActivationBytesStable) {
  Rng rng(5);
  const Tensor x = Tensor::randn({13, 517}, rng);
  expect_identical_bytes([&] {
    Tensor s = x;
    sigmoid(s, s);
    Tensor t = x;
    tanh_op(t, t);
    std::vector<unsigned char> out = tensor_bytes(s);
    const auto more = tensor_bytes(t);
    out.insert(out.end(), more.begin(), more.end());
    return out;
  });
}

// -- Bucketed overlapped gradient sync -------------------------------
//
// The overlap contract: bucket boundaries and launch timing must never
// change a single reduced byte.  Run the same per-rank gradients through
// the synchronous path (inline engine, every bucket launched by
// finish()) and through notified buckets at several bucket sizes (many
// tiny buckets / one huge bucket), threaded and inline, and require
// byte-identical averaged gradients.

namespace {

/// Deterministic per-rank gradients: rank-dependent (so the reduction
/// order matters) but reproducible.
std::vector<Param> make_test_params(int rank) {
  const std::vector<std::vector<Index>> shapes = {
      {3, 100}, {7, 1}, {13, 33}, {64, 8}, {501, 2}};
  std::vector<Param> params;
  params.reserve(shapes.size());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    Param p(std::string("p").append(std::to_string(s)), Tensor(shapes[s]));
    auto g = p.grad.data();
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = std::ldexp(1.0f + 0.001f * static_cast<float>((i * 7 + s) % 911),
                        static_cast<int>((i + static_cast<std::size_t>(rank)) %
                                         17) - 8);
    }
    params.push_back(std::move(p));
  }
  return params;
}

std::vector<unsigned char> grad_bytes(const std::vector<Param>& params) {
  std::vector<unsigned char> out;
  for (const Param& p : params) {
    append_bytes(out, p.grad.data().data(),
                 p.grad.data().size() * sizeof(float));
  }
  return out;
}

}  // namespace

TEST(GradSyncDeterminism, BucketingNeverChangesReducedBytes) {
  for (const WirePrecision wire : {WirePrecision::FP32, WirePrecision::FP16}) {
    // mode: {bucket_bytes, force_thread}; bucket 0 = the synchronous
    // path (default buckets, inline engine, no backward notifications).
    struct Mode {
      std::size_t bucket_bytes;
      bool threaded;
    };
    const std::vector<Mode> modes = {
        {0, false},       // synchronous: the bitwise reference
        {256, false},     // many tiny buckets, inline engine
        {256, true},      // many tiny buckets, comm thread
        {1 << 20, true},  // everything in one bucket, comm thread
    };
    std::vector<std::vector<unsigned char>> results(modes.size());

    CommWorld world(4);
    for (std::size_t m = 0; m < modes.size(); ++m) {
      world.run([&](Communicator& comm) {
        std::vector<Param> params = make_test_params(comm.rank());
        std::vector<Param*> ptrs;
        for (Param& p : params) ptrs.push_back(&p);

        DenseGradSync sync(ExchangeOptions{wire, 64.0f});
        if (modes[m].bucket_bytes == 0) {
          // finish() launches every bucket, in plan order, inline.
          AsyncCommEngine engine(comm, /*overlap=*/false);
          sync.begin_step(comm, engine, ptrs);
          sync.finish();
        } else {
          AsyncCommEngine engine(comm, /*overlap=*/true,
                                 modes[m].threaded);
          sync.set_bucket_bytes(modes[m].bucket_bytes);
          sync.begin_step(comm, engine, ptrs);
          // Notify in an arbitrary interleaving — completion order must
          // not matter, only the plan order inside each bucket.
          for (std::size_t i = params.size(); i-- > 0;) {
            sync.notify_ready(ptrs[i]);
          }
          sync.finish();
        }
        if (comm.rank() == 0) results[m] = grad_bytes(params);
      });
      ASSERT_FALSE(results[m].empty());
      if (m > 0) {
        ASSERT_EQ(results[m].size(), results[0].size());
        EXPECT_EQ(0, std::memcmp(results[m].data(), results[0].data(),
                                 results[0].size()))
            << "wire=" << (wire == WirePrecision::FP16 ? "fp16" : "fp32")
            << " mode " << m << " diverged from the synchronous path";
      }
    }
  }
}

}  // namespace
}  // namespace zipflm
