// Wire-codec round trips, determinism, and cross-backend parity.
//
// The contracts under test (see comm/wire_codec.hpp):
//  * index varint/delta and the packed byte-plane codec are lossless
//    over arbitrary payloads — including empty blocks, single elements,
//    int64 extremes, denormals, and NaN bit patterns;
//  * INT8 is deterministic (same bytes in, same bytes out) and its
//    vector kernels are bitwise identical to the scalar fallbacks;
//  * a coded allreduce produces the same bits on the SharedMem,
//    InProcNet, and Socket backends, and the lossless codec reproduces
//    the raw path exactly;
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
#include "zipflm/core/exchange.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/tensor/pack.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {
namespace {

std::vector<Index> roundtrip_ids(const std::vector<Index>& ids) {
  std::vector<std::byte> enc;
  encode_index_block(std::span<const Index>(ids), enc);
  std::vector<Index> dec;
  decode_index_block(std::span<const std::byte>(enc), dec);
  return dec;
}

TEST(IndexCodec, RoundTripsEdgePayloads) {
  const std::vector<std::vector<Index>> cases = {
      {},
      {0},
      {42},
      {std::numeric_limits<Index>::max()},
      {std::numeric_limits<Index>::min()},
      {std::numeric_limits<Index>::min(), std::numeric_limits<Index>::max()},
      {7, 7, 7, 7},
      {5, 1, 9, 2, 2, 8},  // unsorted: zigzag handles negative deltas
      {0, 1, 2, 3, 1000000, 1000001},
  };
  for (const auto& ids : cases) {
    EXPECT_EQ(roundtrip_ids(ids), ids) << "case size " << ids.size();
  }
}

TEST(IndexCodec, RoundTripsFuzzedSortedUniqueSets) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_index(501));
    std::vector<Index> ids(n);
    Index cur = 0;
    for (auto& id : ids) {
      cur += static_cast<Index>(1 + rng.uniform_index(1 << 20));
      id = cur;
    }
    EXPECT_EQ(roundtrip_ids(ids), ids);
  }
}

TEST(IndexCodec, SortedIdsCompressWellBelowRaw) {
  // The production payload: a sorted unique index set with small gaps.
  std::vector<Index> ids;
  for (Index i = 0; i < 10000; ++i) ids.push_back(i * 3);
  std::vector<std::byte> enc;
  encode_index_block(std::span<const Index>(ids), enc);
  // 8 bytes/id raw; small sorted deltas need ~1 byte/id varint-coded.
  EXPECT_LT(enc.size(), ids.size() * 2);
}

TEST(IndexCodec, MalformedInputThrows) {
  std::vector<Index> dec;
  // A truncated varint: continuation bit set, then nothing.
  const std::byte bad[] = {std::byte{0x01}, std::byte{0x80}};
  EXPECT_THROW(
      decode_index_block(std::span<const std::byte>(bad, 2), dec), Error);
}

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

TEST(PackedCodec, LosslessOverEdgeFloatPayloads) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float nan1 = std::bit_cast<float>(0x7FC00001u);  // NaN payload bits
  const float nan2 = std::bit_cast<float>(0xFFC12345u);
  const std::vector<std::vector<float>> cases = {
      {},
      {0.0f},
      {-0.0f, 0.0f},
      {denorm, -denorm, std::numeric_limits<float>::max()},
      {nan1, nan2, std::numeric_limits<float>::infinity(),
       -std::numeric_limits<float>::infinity()},
      std::vector<float>(1000, 0.0f),
  };
  for (const auto& in : cases) {
    const auto out = roundtrip_grad(WireCodec::Packed, in);
    EXPECT_TRUE(bitwise_equal(in, out)) << "case size " << in.size();
  }
}

TEST(PackedCodec, LosslessOverFuzzedFloats) {
  Rng rng(77);
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_index(778));
    std::vector<float> in(n);
    for (auto& v : in) v = static_cast<float>(rng.uniform(-10.0, 10.0));
    EXPECT_TRUE(bitwise_equal(in, roundtrip_grad(WireCodec::Packed, in)));
  }
}

TEST(PackedCodec, LosslessOverHalfPayloads) {
  std::vector<Half> in;
  in.push_back(Half(0.0f));
  in.push_back(Half(-1.5f));
  in.push_back(Half::from_bits(0x7E01));  // NaN with payload
  in.push_back(Half::from_bits(0x0001));  // smallest subnormal
  for (float v = -8.0f; v < 8.0f; v += 0.37f) in.push_back(Half(v));
  std::vector<std::byte> enc;
  encode_grad_chunk(WireCodec::Packed, std::span<const Half>(in), enc);
  std::vector<Half> out(in.size());
  decode_grad_chunk(WireCodec::Packed, std::span<const std::byte>(enc),
                    std::span<Half>(out));
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(in[i].bits(), out[i].bits()) << "i=" << i;
  }
}

TEST(PackedCodec, ZeroHeavyGradientsCompress) {
  // Typical sparse-ish gradient: mostly zeros.  The RLE planes must get
  // the encoding well under the raw 4 bytes/element.
  std::vector<float> in(4096, 0.0f);
  in[17] = 1.25f;
  in[999] = -3.5f;
  std::vector<std::byte> enc;
  encode_grad_chunk(WireCodec::Packed, std::span<const float>(in), enc);
  EXPECT_LT(enc.size(), in.size() * sizeof(float) / 8);
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
    for (const WireCodec codec : {WireCodec::Packed, WireCodec::Int8}) {
      simd::set_backend(simd::Backend::kNative);
      std::vector<std::byte> enc_native;
      encode_grad_chunk(codec, std::span<const float>(in), enc_native);
      std::vector<float> dec_native(n);
      decode_grad_chunk(codec, std::span<const std::byte>(enc_native),
                        std::span<float>(dec_native));

      simd::set_backend(simd::Backend::kScalar);
      std::vector<std::byte> enc_scalar;
      encode_grad_chunk(codec, std::span<const float>(in), enc_scalar);
      std::vector<float> dec_scalar(n);
      decode_grad_chunk(codec, std::span<const std::byte>(enc_scalar),
                        std::span<float>(dec_scalar));

      EXPECT_EQ(enc_native, enc_scalar)
          << wire_codec_name(codec) << " n=" << n;
      EXPECT_TRUE(bitwise_equal(dec_native, dec_scalar))
          << wire_codec_name(codec) << " n=" << n;
    }
  }
}

// -- Coded collectives ------------------------------------------------------

std::vector<std::vector<float>> run_allreduce(CommBackend backend, int g,
                                              std::size_t n, WireCodec codec) {
  CommWorld::Options opts;
  opts.backend = backend;
  CommWorld world(g, opts);
  std::vector<std::vector<float>> results(static_cast<std::size_t>(g));
  world.run([&](Communicator& comm) {
    std::vector<float> data(n);
    Rng rng(900 + static_cast<std::uint64_t>(comm.rank()));
    for (auto& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    WireCodecScope scope(comm, codec);
    comm.allreduce_sum(std::span<float>(data));
    results[static_cast<std::size_t>(comm.rank())] = data;
  });
  return results;
}

class CodedWorlds : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Worlds, CodedWorlds, ::testing::Values(2, 3, 4, 8));

TEST_P(CodedWorlds, PackedAllreduceBitwiseEqualsRaw) {
  const int g = GetParam();
  for (const std::size_t n : {std::size_t{1}, std::size_t{63},
                              std::size_t{1000}}) {
    const auto raw = run_allreduce(CommBackend::SharedMem, g, n,
                                   WireCodec::None);
    const auto packed = run_allreduce(CommBackend::SharedMem, g, n,
                                      WireCodec::Packed);
    for (int r = 0; r < g; ++r) {
      EXPECT_TRUE(bitwise_equal(raw[static_cast<std::size_t>(r)],
                                packed[static_cast<std::size_t>(r)]))
          << "world=" << g << " n=" << n << " rank=" << r;
    }
  }
}

TEST_P(CodedWorlds, CodedAllreduceIdenticalAcrossBackends) {
  const int g = GetParam();
  const std::size_t n = 513;
  for (const WireCodec codec : {WireCodec::Packed, WireCodec::Int8}) {
    const auto shared = run_allreduce(CommBackend::SharedMem, g, n, codec);
    const auto inproc = run_allreduce(CommBackend::InProcNet, g, n, codec);
    for (int r = 0; r < g; ++r) {
      EXPECT_TRUE(bitwise_equal(shared[static_cast<std::size_t>(r)],
                                inproc[static_cast<std::size_t>(r)]))
          << wire_codec_name(codec) << " world=" << g << " rank=" << r;
    }
    // Every rank must agree with every other (coded phase 2 hands all
    // ranks, the owner included, the decode of one shared encoding).
    for (int r = 1; r < g; ++r) {
      EXPECT_TRUE(bitwise_equal(shared[0],
                                shared[static_cast<std::size_t>(r)]));
    }
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
    std::vector<float> data(n);
    Rng rng(900 + static_cast<std::uint64_t>(comm.rank()));
    for (auto& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
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
    for (const WireCodec codec :
         {WireCodec::None, WireCodec::Packed, WireCodec::Int8}) {
      const auto want = run_allreduce(CommBackend::SharedMem, g, n, codec);
      for (const CommBackend backend :
           {CommBackend::SharedMem, CommBackend::InProcNet}) {
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
  // The shared-memory engine models the transport ring's encoded volume
  // hop by hop, so both engines book identical codec bytes, and the two
  // halves move exactly the raw bytes of one allreduce.
  const int g = 4;
  const std::size_t n = 1000;
  for (const WireCodec codec : {WireCodec::Packed, WireCodec::Int8}) {
    TrafficLedger shm, net;
    run_halves(CommBackend::SharedMem, g, n, codec, &shm);
    run_halves(CommBackend::InProcNet, g, n, codec, &net);
    EXPECT_EQ(shm.reduce_scatter_calls, 4u);
    EXPECT_EQ(shm.allgather_calls, 4u);
    EXPECT_EQ(shm.allreduce_calls, 0u);
    EXPECT_EQ(shm.max_reduce_scatter_payload_bytes, n * sizeof(float));
    EXPECT_EQ(shm.max_allgather_payload_bytes, n / g * sizeof(float));
    EXPECT_EQ(shm.bytes_sent, 2u * (g - 1) * n * sizeof(float));
    EXPECT_EQ(shm.bytes_sent, net.bytes_sent);
    const CodecSlot slot =
        codec == WireCodec::Packed ? CodecSlot::Packed : CodecSlot::Int8;
    EXPECT_EQ(shm.codec_slot(slot).wire_bytes,
              net.codec_slot(slot).wire_bytes)
        << wire_codec_name(codec);
    EXPECT_EQ(shm.codec_slot(slot).logical_bytes,
              (g - 1) * n * sizeof(float))
        << "only the reduce-scatter is coded";
    EXPECT_DOUBLE_EQ(shm.simulated_comm_seconds, net.simulated_comm_seconds);
    const CostModel cost = CostModel::titan_x_cluster();
    EXPECT_DOUBLE_EQ(
        shm.simulated_comm_seconds,
        g * cost.ring_allreduce_seconds(Topology::for_world(g),
                                        n * sizeof(float)));
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

TEST(CodedCollectives, LedgerBooksCodecSlots) {
  CommWorld world(4);
  world.run([&](Communicator& comm) {
    std::vector<float> data(256, static_cast<float>(comm.rank()));
    WireCodecScope scope(comm, WireCodec::Int8);
    comm.allreduce_sum(std::span<float>(data));
  });
  const TrafficLedger total = world.total_ledger();
  const CodecTraffic& slot = total.codec_slot(CodecSlot::Int8);
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

// -- Index codec through the exchange layer ---------------------------------

TEST(IndexCodecExchange, UniqueExchangeEquivalentWithCodecOn) {
  const int g = 4;
  const Index d = 8;
  const std::size_t k = 32;
  auto run = [&](bool coded) {
    CommWorld world(g);
    std::vector<std::vector<Index>> ids_out(static_cast<std::size_t>(g));
    std::vector<std::vector<float>> rows_out(static_cast<std::size_t>(g));
    world.run([&](Communicator& comm) {
      Rng rng(5000 + static_cast<std::uint64_t>(comm.rank()));
      std::vector<Index> ids(k);
      for (auto& id : ids) id = static_cast<Index>(rng.uniform_index(201));
      Tensor delta({static_cast<Index>(k), d});
      for (auto& v : delta.data()) {
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      ExchangeOptions opts;
      opts.index_codec = coded;
      UniqueExchange ex(opts);
      std::vector<Index> uids;
      Tensor urows;
      ex.exchange(comm, ids, delta, uids, urows);
      ids_out[static_cast<std::size_t>(comm.rank())] = uids;
      auto span = urows.data();
      rows_out[static_cast<std::size_t>(comm.rank())]
          .assign(span.begin(), span.end());
    });
    return std::make_pair(ids_out, rows_out);
  };
  const auto raw = run(false);
  const auto coded = run(true);
  EXPECT_EQ(raw.first, coded.first);
  for (int r = 0; r < g; ++r) {
    EXPECT_TRUE(bitwise_equal(raw.second[static_cast<std::size_t>(r)],
                              coded.second[static_cast<std::size_t>(r)]))
        << "rank " << r;
  }
}

TEST(IndexCodecExchange, LedgerBooksIndexVarintSlot) {
  CommWorld world(2);
  world.run([&](Communicator& comm) {
    std::vector<Index> ids = {3, 1, 4, 1, 5, 9, 2, 6};
    Tensor delta({8, 4});
    for (auto& v : delta.data()) v = 1.0f;
    ExchangeOptions opts;
    opts.index_codec = true;
    UniqueExchange ex(opts);
    std::vector<Index> uids;
    Tensor urows;
    ex.exchange(comm, ids, delta, uids, urows);
  });
  const TrafficLedger total = world.total_ledger();
  const CodecTraffic& slot = total.codec_slot(CodecSlot::IndexVarint);
  EXPECT_GT(slot.logical_bytes, 0u);
  // The compression evidence: INT8 moved fewer bytes than it carried.
  EXPECT_GT(slot.wire_bytes, 0u);
  EXPECT_LT(slot.wire_bytes, slot.logical_bytes);
}

// -- Adversarial bytes --------------------------------------------------
//
// Deterministic mutation fuzzing of the decoders that take bytes from
// another rank: seeded from valid encodings, then bit flips, truncations
// and lying counts.  A mutation must either decode in bounds or throw
// zipflm::Error — never crash, hang, or allocate more than the input
// can describe.  The suite is cheap enough to run under the sanitizer
// tier.

constexpr int kMutations = 2000;

/// Flip 1-4 random bits of `bytes`.
void flip_bits(std::vector<std::byte>& bytes, Rng& rng) {
  const auto flips = 1 + rng.uniform_index(4);
  for (std::uint64_t f = 0; f < flips; ++f) {
    const auto bit = rng.uniform_index(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
}

template <typename T>
std::vector<T> fuzz_payload(std::size_t n, Rng& rng) {
  std::vector<T> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Zero-heavy, like gradients: gives the RLE planes real runs.
    const double x = rng.uniform_index(3) == 0 ? 0.0 : rng.normal() * 1e-2;
    v[i] = T(static_cast<float>(x));
  }
  return v;
}

template <typename T>
void fuzz_grad_decoder(WireCodec codec) {
  Rng rng(0x5EED0000u + static_cast<std::uint64_t>(codec) * 7 + sizeof(T));
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::size_t n = 1 + rng.uniform_index(300);
    const std::vector<T> src = fuzz_payload<T>(n, rng);
    std::vector<std::byte> enc;
    encode_grad_chunk(codec, std::span<const T>(src), enc);
    std::size_t out_n = n;
    bool must_reject = false;
    switch (i % 3) {
      case 0:
        flip_bits(enc, rng);
        break;
      case 1:  // truncate: the decoder must notice the missing bytes
        enc.resize(rng.uniform_index(enc.size()));
        must_reject = true;
        break;
      default: {  // the element count the receiver expects lies
        const std::size_t lies[] = {0, n - 1, n + 1, 2 * n + 17};
        out_n = lies[rng.uniform_index(std::size(lies))];
        // Only an INT8 payload's size pins its count exactly; a packed
        // plane can happen to parse at another width.
        must_reject = codec == WireCodec::Int8 && out_n != n;
        break;
      }
    }
    std::vector<T> out(out_n);
    try {
      decode_grad_chunk(codec, std::span<const std::byte>(enc),
                        std::span<T>(out));
      EXPECT_FALSE(must_reject)
          << wire_codec_name(codec) << " mutation " << i << " decoded";
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Truncations alone are a third of the mutations.
  EXPECT_GE(rejected, kMutations / 3) << wire_codec_name(codec);
}

TEST(DecoderFuzz, PackedFloatChunksSurviveMutation) {
  fuzz_grad_decoder<float>(WireCodec::Packed);
}
TEST(DecoderFuzz, PackedHalfChunksSurviveMutation) {
  fuzz_grad_decoder<Half>(WireCodec::Packed);
}
TEST(DecoderFuzz, Int8FloatChunksSurviveMutation) {
  fuzz_grad_decoder<float>(WireCodec::Int8);
}
TEST(DecoderFuzz, Int8HalfChunksSurviveMutation) {
  fuzz_grad_decoder<Half>(WireCodec::Int8);
}

TEST(DecoderFuzz, IndexBlocksSurviveMutation) {
  Rng rng(0x1D5EED);
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::vector<Index> ids(1 + rng.uniform_index(200));
    for (auto& id : ids) {
      id = rng.uniform_index(8) == 0
               ? static_cast<Index>(rng())  // full-width varints
               : static_cast<Index>(rng.uniform_index(5000));
    }
    std::vector<std::byte> enc;
    encode_index_block(std::span<const Index>(ids), enc);
    bool must_reject = false;
    switch (i % 3) {
      case 0:
        flip_bits(enc, rng);
        break;
      case 1: {  // cut inside a varint: its continuation bit dangles
        std::size_t cut = rng.uniform_index(enc.size());
        while (cut > 0 &&
               (static_cast<std::uint8_t>(enc[cut - 1]) & 0x80) == 0) {
          --cut;
        }
        enc.resize(cut);
        must_reject = cut > 0;
        break;
      }
      default: {  // a varint that lies about its length: 11 continuation
                  // bytes, past the 64-bit limit
        const auto at = rng.uniform_index(enc.size() + 1);
        enc.insert(enc.begin() + static_cast<std::ptrdiff_t>(at), 11,
                   std::byte{0xFF});
        must_reject = true;
        break;
      }
    }
    std::vector<Index> out;
    try {
      decode_index_block(std::span<const std::byte>(enc), out);
      EXPECT_FALSE(must_reject) << "mutation " << i << " decoded";
      // Every id takes at least one byte, so the output is bounded by
      // the input — no lying count can inflate it.
      EXPECT_LE(out.size(), enc.size());
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GE(rejected, kMutations / 3);
}

}  // namespace
}  // namespace zipflm
