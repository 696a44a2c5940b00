// Wire-codec round trips, determinism, and cross-backend parity.
//
// The contracts under test (see comm/wire_codec.hpp):
//  * INT8 is deterministic (same bytes in, same bytes out) and its
//    vector kernels are bitwise identical to the scalar fallbacks;
//  * a coded allreduce produces the bits of the single-threaded ring
//    replay (reference_ring.hpp) on the SharedMem and Socket backends,
//    and both book the same encoded bytes;
//  * a reduce-scatter leaves each owner exactly the bytes the allreduce
//    leaves in its chunk, and the chunk allgather completes it;
//  * ranks arming different codecs fail loudly;
//  * every decoder of wire bytes survives adversarial input: mutated
//    encodings either decode in bounds or throw zipflm::Error.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/comm/wire_codec.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/tensor/simd.hpp"
#include "decoder_fuzz.hpp"
#include "reference_ring.hpp"

namespace zipflm {
namespace {

template <typename T>
std::vector<T> roundtrip_grad(WireCodec codec, const std::vector<T>& in) {
  std::vector<std::byte> enc;
  encode_grad_chunk(codec, std::span<const T>(in), enc);
  std::vector<T> out(in.size());
  decode_grad_chunk(codec, std::span<const std::byte>(enc), std::span<T>(out));
  return out;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Int8Codec, DeterministicAndBounded) {
  Rng rng(31);
  std::vector<float> in(1024);
  for (auto& v : in) v = static_cast<float>(rng.uniform(-4.0, 4.0));

  std::vector<std::byte> enc1, enc2;
  encode_grad_chunk(WireCodec::Int8, std::span<const float>(in), enc1);
  encode_grad_chunk(WireCodec::Int8, std::span<const float>(in), enc2);
  EXPECT_EQ(enc1, enc2);
  // 4-byte scale + 1 byte per element.
  EXPECT_EQ(enc1.size(), 4 + in.size());
  EXPECT_EQ(enc1.size(), encoded_chunk_bytes(in.size()));

  std::vector<float> out(in.size());
  decode_grad_chunk(WireCodec::Int8, std::span<const std::byte>(enc1),
                    std::span<float>(out));
  float max_abs = 0.0f;
  for (const float v : in) max_abs = std::max(max_abs, std::fabs(v));
  const float scale = max_abs / 127.0f;
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_LE(std::fabs(out[i] - in[i]), scale * 0.5f + 1e-6f) << "i=" << i;
  }
}

TEST(Int8Codec, NonFinitePayloadDecodesAllNaN) {
  // A single NaN (e.g. a Corrupt-fault poisoned chunk) must poison the
  // whole decoded chunk so the overflow guard still fires in lockstep.
  std::vector<float> in = {1.0f, std::numeric_limits<float>::quiet_NaN(),
                           2.0f};
  const auto out = roundtrip_grad(WireCodec::Int8, in);
  for (const float v : out) EXPECT_TRUE(std::isnan(v));
}

TEST(Int8Codec, AllZeroPayloadDecodesToZeros) {
  const std::vector<float> in(64, 0.0f);
  EXPECT_TRUE(bitwise_equal(in, roundtrip_grad(WireCodec::Int8, in)));
}

TEST(Int8Codec, SubnormalScaleStaysFinite) {
  // max_abs/127 can go subnormal; quantization divides by the scale
  // (never multiplies by its inverse), so the quants must stay exact.
  std::vector<float> in(16, std::numeric_limits<float>::denorm_min() * 100);
  const auto out = roundtrip_grad(WireCodec::Int8, in);
  for (const float v : out) EXPECT_TRUE(std::isfinite(v));
}

class CodecBackendParity : public ::testing::Test {
 protected:
  void TearDown() override { simd::set_backend(simd::Backend::kNative); }
};

TEST_F(CodecBackendParity, VectorKernelsMatchScalarBitwise) {
  Rng rng(8);
  for (const std::size_t n : {std::size_t{1}, std::size_t{15}, std::size_t{64},
                              std::size_t{1000}}) {
    std::vector<float> in(n);
    for (auto& v : in) v = static_cast<float>(rng.uniform(-3.0, 3.0));
    in[0] = 0.0f;  // exercise exact-zero and sign handling
    simd::set_backend(simd::Backend::kNative);
    std::vector<std::byte> enc_native;
    encode_grad_chunk(WireCodec::Int8, std::span<const float>(in), enc_native);
    std::vector<float> dec_native(n);
    decode_grad_chunk(WireCodec::Int8, std::span<const std::byte>(enc_native),
                      std::span<float>(dec_native));

    simd::set_backend(simd::Backend::kScalar);
    std::vector<std::byte> enc_scalar;
    encode_grad_chunk(WireCodec::Int8, std::span<const float>(in), enc_scalar);
    std::vector<float> dec_scalar(n);
    decode_grad_chunk(WireCodec::Int8, std::span<const std::byte>(enc_scalar),
                      std::span<float>(dec_scalar));

    EXPECT_EQ(enc_native, enc_scalar) << "n=" << n;
    EXPECT_TRUE(bitwise_equal(dec_native, dec_scalar)) << "n=" << n;
  }
}

// -- Coded collectives ------------------------------------------------------

std::vector<float> rank_input(int rank, std::size_t n) {
  std::vector<float> data(n);
  Rng rng(900 + static_cast<std::uint64_t>(rank));
  for (auto& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return data;
}

std::vector<std::vector<float>> run_allreduce(CommBackend backend, int g,
                                              std::size_t n, WireCodec codec) {
  CommWorld::Options opts;
  opts.backend = backend;
  CommWorld world(g, opts);
  std::vector<std::vector<float>> results(static_cast<std::size_t>(g));
  world.run([&](Communicator& comm) {
    std::vector<float> data = rank_input(comm.rank(), n);
    WireCodecScope scope(comm, codec);
    comm.allreduce_sum(std::span<float>(data));
    results[static_cast<std::size_t>(comm.rank())] = data;
  });
  return results;
}

class CodedWorlds : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Worlds, CodedWorlds, ::testing::Values(2, 3, 4, 8));

TEST_P(CodedWorlds, CodedAllreduceIdenticalAcrossBackends) {
  const int g = GetParam();
  const std::size_t n = 513;
  std::vector<std::vector<float>> want;
  for (int r = 0; r < g; ++r) want.push_back(rank_input(r, n));
  reference_ring::allreduce(want, reference_ring::Combine::Sum,
                            WireCodec::Int8);
  for (const CommBackend backend :
       {CommBackend::SharedMem, CommBackend::Socket}) {
    const auto got = run_allreduce(backend, g, n, WireCodec::Int8);
    for (int r = 0; r < g; ++r) {
      EXPECT_TRUE(bitwise_equal(want[static_cast<std::size_t>(r)],
                                got[static_cast<std::size_t>(r)]))
          << "world=" << g << " rank=" << r
          << " backend=" << static_cast<int>(backend);
    }
  }
  // Every rank must agree with every other (coded phase 2 hands all
  // ranks, the owner included, the decode of one shared encoding).
  for (int r = 1; r < g; ++r) {
    EXPECT_TRUE(bitwise_equal(want[0], want[static_cast<std::size_t>(r)]));
  }
}

/// Per rank: {data after reduce_scatter_sum, after allgather_chunks}.
std::vector<std::pair<std::vector<float>, std::vector<float>>> run_halves(
    CommBackend backend, int g, std::size_t n, WireCodec codec,
    TrafficLedger* ledger = nullptr) {
  CommWorld::Options opts;
  opts.backend = backend;
  CommWorld world(g, opts);
  std::vector<std::pair<std::vector<float>, std::vector<float>>> results(
      static_cast<std::size_t>(g));
  world.run([&](Communicator& comm) {
    std::vector<float> data = rank_input(comm.rank(), n);
    WireCodecScope scope(comm, codec);
    comm.reduce_scatter_sum(std::span<float>(data));
    auto& out = results[static_cast<std::size_t>(comm.rank())];
    out.first = data;
    comm.allgather_chunks(std::span<float>(data));
    out.second = data;
  });
  if (ledger != nullptr) *ledger = world.total_ledger();
  return results;
}

TEST_P(CodedWorlds, ReduceScatterThenAllgatherIsTheAllreduce) {
  const int g = GetParam();
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{513}}) {
    for (const WireCodec codec : {WireCodec::None, WireCodec::Int8}) {
      const auto want = run_allreduce(CommBackend::SharedMem, g, n, codec);
      for (const CommBackend backend :
           {CommBackend::SharedMem, CommBackend::Socket}) {
        const auto got = run_halves(backend, g, n, codec);
        for (int r = 0; r < g; ++r) {
          const auto& w = want[static_cast<std::size_t>(r)];
          const auto& [scattered, gathered] = got[static_cast<std::size_t>(r)];
          const ChunkRange own = Communicator::owned_chunk(n, r, g);
          EXPECT_EQ(std::memcmp(scattered.data() + own.begin,
                                w.data() + own.begin,
                                own.size() * sizeof(float)),
                    0)
              << wire_codec_name(codec) << " n=" << n << " rank=" << r;
          EXPECT_TRUE(bitwise_equal(gathered, w))
              << wire_codec_name(codec) << " n=" << n << " rank=" << r;
        }
      }
    }
  }
}

TEST(CodedCollectives, OwnedChunksTileTheBuffer) {
  for (const int g : {1, 2, 3, 4, 8}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{5}, std::size_t{64},
                                std::size_t{1001}}) {
      std::vector<int> owner(n, -1);
      for (int r = 0; r < g; ++r) {
        const ChunkRange c = Communicator::owned_chunk(n, r, g);
        ASSERT_LE(c.begin, c.end);
        ASSERT_LE(c.end, n);
        for (std::size_t i = c.begin; i < c.end; ++i) {
          EXPECT_EQ(owner[i], -1) << "g=" << g << " n=" << n;
          owner[i] = r;
        }
      }
      for (const int o : owner) EXPECT_NE(o, -1) << "g=" << g << " n=" << n;
    }
  }
}

TEST(CodedCollectives, HalvesBookTheirOwnLedgerRows) {
  // Both backends book identical codec bytes, and the two halves move
  // exactly the raw bytes of one allreduce.
  const int g = 4;
  const std::size_t n = 1000;
  TrafficLedger shm, net;
  run_halves(CommBackend::SharedMem, g, n, WireCodec::Int8, &shm);
  run_halves(CommBackend::Socket, g, n, WireCodec::Int8, &net);
  EXPECT_EQ(shm.reduce_scatter_calls, 4u);
  EXPECT_EQ(shm.allgather_calls, 4u);
  EXPECT_EQ(shm.allreduce_calls, 0u);
  EXPECT_EQ(shm.max_reduce_scatter_payload_bytes, n * sizeof(float));
  EXPECT_EQ(shm.max_allgather_payload_bytes, n / g * sizeof(float));
  EXPECT_EQ(shm.bytes_sent, 2u * (g - 1) * n * sizeof(float));
  EXPECT_EQ(shm.bytes_sent, net.bytes_sent);
  EXPECT_EQ(shm.codec.wire_bytes, net.codec.wire_bytes);
  EXPECT_EQ(shm.codec.logical_bytes, (g - 1) * n * sizeof(float))
      << "only the reduce-scatter is coded";
  EXPECT_EQ(shm.codec.wire_bytes, g * (g - 1) * encoded_chunk_bytes(n / g));
  EXPECT_DOUBLE_EQ(shm.simulated_comm_seconds, net.simulated_comm_seconds);
  const CostModel cost = CostModel::titan_x_cluster();
  EXPECT_DOUBLE_EQ(
      shm.simulated_comm_seconds,
      g * cost.ring_allreduce_seconds(Topology::for_world(g),
                                      n * sizeof(float)));
}

TEST(CodedCollectives, EnginesBookEqualInt8WireBytesWithEmptyChunks) {
  // n < g leaves ring chunks empty: such a hop moves and books no
  // bytes.  Uneven n gives chunks of two lengths.
  const int g = 4;
  for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                              std::size_t{1001}}) {
    for (const CommBackend backend :
         {CommBackend::SharedMem, CommBackend::Socket}) {
      CommWorld::Options opts;
      opts.backend = backend;
      CommWorld world(g, opts);
      world.run([&](Communicator& comm) {
        std::vector<float> data(n, 1.0f + static_cast<float>(comm.rank()));
        WireCodecScope scope(comm, WireCodec::Int8);
        comm.allreduce_sum(std::span<float>(data));
      });
      // Every chunk crosses g - 1 hops in each half.
      std::uint64_t want = 0;
      for (int c = 0; c < g; ++c) {
        const std::size_t len = Communicator::ring_chunk(n, g, c).size();
        if (len != 0) want += 2u * (g - 1) * encoded_chunk_bytes(len);
      }
      EXPECT_EQ(world.total_ledger().codec.wire_bytes, want)
          << "n=" << n << " backend=" << static_cast<int>(backend);
    }
  }
}

TEST(CodedCollectives, Int8ApproximatesRawSum) {
  const int g = 4;
  const std::size_t n = 2048;
  const auto raw = run_allreduce(CommBackend::SharedMem, g, n, WireCodec::None);
  const auto int8 = run_allreduce(CommBackend::SharedMem, g, n,
                                  WireCodec::Int8);
  double max_err = 0.0, max_mag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_err = std::max(max_err,
                       std::fabs(static_cast<double>(raw[0][i]) - int8[0][i]));
    max_mag = std::max(max_mag, std::fabs(static_cast<double>(raw[0][i])));
  }
  // Per-chunk scales bound the quantization error at a few percent of
  // the chunk's max magnitude per ring hop.
  EXPECT_LT(max_err, 0.1 * std::max(max_mag, 1.0));
}

TEST(CodedCollectives, LedgerBooksInt8Traffic) {
  CommWorld world(4);
  world.run([&](Communicator& comm) {
    std::vector<float> data(256, static_cast<float>(comm.rank()));
    WireCodecScope scope(comm, WireCodec::Int8);
    comm.allreduce_sum(std::span<float>(data));
  });
  const TrafficLedger total = world.total_ledger();
  const CodecTraffic& slot = total.codec;
  EXPECT_GT(slot.logical_bytes, 0u);
  // The compression evidence: INT8 moved fewer bytes than it carried.
  EXPECT_GT(slot.wire_bytes, 0u);
  EXPECT_LT(slot.wire_bytes, slot.logical_bytes);
  EXPECT_GT(slot.ratio(), 1.0);  // logical / wire
  EXPECT_NE(total.to_json().find("\"codec\""), std::string::npos);
  EXPECT_NE(total.to_json().find("\"int8\""), std::string::npos);
}

TEST(CodedCollectives, MismatchedCodecsThrowOnEveryRank) {
  CommWorld world(2);
  std::atomic<int> throws{0};
  EXPECT_THROW(world.run([&](Communicator& comm) {
    std::vector<float> data(16, 1.0f);
    WireCodecScope scope(
        comm, comm.rank() == 0 ? WireCodec::Int8 : WireCodec::None);
    try {
      comm.allreduce_sum(std::span<float>(data));
    } catch (const CollectiveMismatchError&) {
      ++throws;
      throw;
    }
  }),
               CollectiveMismatchError);
  EXPECT_EQ(throws.load(), 2);
}

TEST(CodedCollectives, MaxAllreduceIgnoresArming) {
  // Overflow voting must stay exact whatever codec is armed.
  CommWorld world(3);
  world.run([&](Communicator& comm) {
    std::vector<float> data = {static_cast<float>(comm.rank()), -1.0f};
    WireCodecScope scope(comm, WireCodec::Int8);
    comm.allreduce_max(std::span<float>(data));
    EXPECT_EQ(data[0], 2.0f);
    EXPECT_EQ(data[1], -1.0f);
  });
}

// -- Adversarial bytes --------------------------------------------------
//
// The Int8 decoder takes bytes from another rank; mutated encodings
// (decoder_fuzz.hpp) must decode in bounds or throw zipflm::Error.  The
// count that can lie here is the receiver's: the element count it
// expects, not a field of the payload.

template <typename T>
std::vector<T> fuzz_payload(std::size_t n, Rng& rng) {
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Zero-heavy, like gradients: exercises all-zero chunks too.
    const double x = rng.uniform_index(3) == 0 ? 0.0 : rng.normal() * 1e-2;
    v[i] = T(static_cast<float>(x));
  }
  return v;
}

template <typename T>
void fuzz_int8_decoder() {
  Rng rng(0x5EED000Eu + sizeof(T));
  int rejected = 0;
  for (int i = 0; i < fuzz::kMutations; ++i) {
    const std::size_t n = 1 + rng.uniform_index(300);
    const std::vector<T> src = fuzz_payload<T>(n, rng);
    std::vector<std::byte> enc;
    encode_grad_chunk(WireCodec::Int8, std::span<const T>(src), enc);
    std::size_t out_n = n;
    bool must_reject = false;
    switch (i % 3) {
      case 0:
        fuzz::flip_bits(enc, rng);
        break;
      case 1:  // truncate: the decoder must notice the missing bytes
        enc.resize(rng.uniform_index(enc.size()));
        must_reject = true;
        break;
      default: {  // the element count the receiver expects lies
        const std::size_t lies[] = {0, n - 1, n + 1, 2 * n + 17};
        out_n = lies[rng.uniform_index(std::size(lies))];
        // An INT8 payload's size pins its count exactly.
        must_reject = out_n != n;
        break;
      }
    }
    std::vector<T> out(out_n);
    try {
      decode_grad_chunk(WireCodec::Int8, std::span<const std::byte>(enc),
                        std::span<T>(out));
      EXPECT_FALSE(must_reject) << "mutation " << i << " decoded";
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Truncations alone are a third of the mutations.
  EXPECT_GE(rejected, fuzz::kMutations / 3);
}

TEST(DecoderFuzz, Int8FloatChunksSurviveMutation) {
  fuzz_int8_decoder<float>();
}
TEST(DecoderFuzz, Int8HalfChunksSurviveMutation) {
  fuzz_int8_decoder<Half>();
}

}  // namespace
}  // namespace zipflm
