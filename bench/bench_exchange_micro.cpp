// Microbenchmark (Fig 4 ablation): wall-clock cost and wire volume of
// DenseExchange vs UniqueExchange over the thread-backed collectives,
// swept over world size, tokens per rank and embedding dimension.
// Also prices the wire codecs: raw encode+decode throughput per codec
// (ns/elem) and the end-to-end UNIQUE exchange under each gradient wire
// format (FP32, FP16, Packed, Int8), reporting logical vs on-wire bytes.
// google-benchmark binary: run with --benchmark_filter=... as usual.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/comm/wire_codec.hpp"
#include "zipflm/core/exchange.hpp"
#include "zipflm/data/zipf.hpp"

namespace zipflm {
namespace {

void run_exchange(benchmark::State& state, bool unique) {
  const int gpus = static_cast<int>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const Index d = static_cast<Index>(state.range(2));

  // Pre-generate per-rank Zipf tokens and gradients once.
  std::vector<std::vector<Index>> ids(static_cast<std::size_t>(gpus));
  std::vector<Tensor> deltas(static_cast<std::size_t>(gpus));
  ZipfSampler sampler(1 << 20, 1.5625);
  for (int r = 0; r < gpus; ++r) {
    Rng rng(40 + static_cast<std::uint64_t>(r));
    auto& v = ids[static_cast<std::size_t>(r)];
    v.resize(k);
    for (auto& id : v) id = static_cast<Index>(sampler.sample(rng) - 1);
    deltas[static_cast<std::size_t>(r)] =
        Tensor::randn({static_cast<Index>(k), d}, rng);
  }

  CommWorld world(gpus);
  std::uint64_t unique_rows = 0;
  for (auto _ : state) {
    world.run([&](Communicator& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      std::vector<Index> out_ids;
      Tensor out_rows;
      if (unique) {
        UniqueExchange ex;
        ex.exchange(comm, ids[r], deltas[r], out_ids, out_rows, nullptr);
      } else {
        DenseExchange ex;
        ex.exchange(comm, ids[r], deltas[r], out_ids, out_rows, nullptr);
      }
      if (comm.rank() == 0) unique_rows = out_ids.size();
      benchmark::DoNotOptimize(out_rows.data().data());
    });
  }

  const auto total = world.total_ledger();
  state.counters["wire_bytes_per_step"] = benchmark::Counter(
      static_cast<double>(total.bytes_sent) /
      static_cast<double>(state.iterations()));
  state.counters["U_g"] = static_cast<double>(unique_rows);
  state.counters["GK"] = static_cast<double>(gpus) * static_cast<double>(k);
  state.counters["sim_comm_s_per_step"] = benchmark::Counter(
      world.max_simulated_comm_seconds() /
      static_cast<double>(state.iterations()));
}

void BM_DenseExchange(benchmark::State& state) { run_exchange(state, false); }
void BM_UniqueExchange(benchmark::State& state) { run_exchange(state, true); }

// Sweep: world in {2, 4, 8}, K in {256, 1024}, D in {64, 256}.
void sweep(benchmark::internal::Benchmark* b) {
  for (const int g : {2, 4, 8}) {
    for (const int k : {256, 1024}) {
      for (const int d : {64, 256}) {
        b->Args({g, k, d});
      }
    }
  }
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_DenseExchange)->Apply(sweep)->UseRealTime();
BENCHMARK(BM_UniqueExchange)->Apply(sweep)->UseRealTime();

// -- Codec conversion throughput -------------------------------------
//
// One encode + one decode per iteration over a gradient-like payload;
// `ns_per_elem` is the combined conversion cost a codec must amortize
// against the wire bytes it saves.  `sparsity` is
// the fraction of exact zeros (packed RLE feeds on them).

void run_codec_roundtrip(benchmark::State& state, WireCodec codec) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const double sparsity = static_cast<double>(state.range(1)) / 100.0;

  Rng rng(7);
  std::vector<float> in(n);
  for (auto& v : in) {
    v = rng.uniform() < sparsity ? 0.0f
                                 : static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  std::vector<std::byte> enc;
  std::vector<float> out(n);
  for (auto _ : state) {
    encode_grad_chunk(codec, std::span<const float>(in), enc);
    decode_grad_chunk(codec, std::span<const std::byte>(enc),
                      std::span<float>(out));
    benchmark::DoNotOptimize(out.data());
  }

  const double iters = static_cast<double>(state.iterations());
  state.counters["wire_bytes"] = static_cast<double>(enc.size());
  state.counters["logical_bytes"] = static_cast<double>(n * sizeof(float));
  state.counters["ratio"] =
      static_cast<double>(enc.size()) / static_cast<double>(n * sizeof(float));
  state.counters["ns_per_elem"] = benchmark::Counter(
      iters * static_cast<double>(n),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_PackedRoundTrip(benchmark::State& state) {
  run_codec_roundtrip(state, WireCodec::Packed);
}
void BM_Int8RoundTrip(benchmark::State& state) {
  run_codec_roundtrip(state, WireCodec::Int8);
}

void BM_IndexVarintRoundTrip(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  // The production payload: sorted unique ids with Zipf-sized gaps.
  ZipfSampler sampler(1 << 20, 1.5625);
  Rng rng(11);
  std::vector<Index> ids(n);
  for (auto& id : ids) id = static_cast<Index>(sampler.sample(rng) - 1);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  std::vector<std::byte> enc;
  std::vector<Index> out;
  for (auto _ : state) {
    encode_index_block(std::span<const Index>(ids), enc);
    decode_index_block(std::span<const std::byte>(enc), out);
    benchmark::DoNotOptimize(out.data());
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["wire_bytes"] = static_cast<double>(enc.size());
  state.counters["logical_bytes"] =
      static_cast<double>(ids.size() * sizeof(Index));
  state.counters["ratio"] = static_cast<double>(enc.size()) /
                            static_cast<double>(ids.size() * sizeof(Index));
  state.counters["ns_per_elem"] = benchmark::Counter(
      iters * static_cast<double>(ids.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void codec_sweep(benchmark::internal::Benchmark* b) {
  for (const int n : {1 << 12, 1 << 16, 1 << 20}) {
    for (const int sparsity_pct : {0, 50, 90}) b->Args({n, sparsity_pct});
  }
  b->Unit(benchmark::kMicrosecond);
}

BENCHMARK(BM_PackedRoundTrip)->Apply(codec_sweep);
BENCHMARK(BM_Int8RoundTrip)->Apply(codec_sweep);
BENCHMARK(BM_IndexVarintRoundTrip)
    ->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

// -- End-to-end UNIQUE exchange per wire format ----------------------
//
// The full strategy (id allgatherv + M-block allreduce) under each of
// the four gradient wire formats, index codec on for the coded formats.
// `wire_bytes_per_step` counts what actually moved: raw ledger bytes
// minus the coded collectives' logical bytes plus their encoded bytes.

void run_coded_exchange(benchmark::State& state, WirePrecision precision,
                        WireCodec codec) {
  const int gpus = static_cast<int>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const Index d = static_cast<Index>(state.range(2));

  std::vector<std::vector<Index>> ids(static_cast<std::size_t>(gpus));
  std::vector<Tensor> deltas(static_cast<std::size_t>(gpus));
  ZipfSampler sampler(1 << 20, 1.5625);
  for (int r = 0; r < gpus; ++r) {
    Rng rng(40 + static_cast<std::uint64_t>(r));
    auto& v = ids[static_cast<std::size_t>(r)];
    v.resize(k);
    for (auto& id : v) id = static_cast<Index>(sampler.sample(rng) - 1);
    deltas[static_cast<std::size_t>(r)] =
        Tensor::randn({static_cast<Index>(k), d}, rng);
  }

  ExchangeOptions opts;
  opts.precision = precision;
  opts.codec = codec;
  opts.index_codec = codec != WireCodec::None;

  CommWorld world(gpus);
  for (auto _ : state) {
    world.run([&](Communicator& comm) {
      const auto r = static_cast<std::size_t>(comm.rank());
      std::vector<Index> out_ids;
      Tensor out_rows;
      UniqueExchange ex(opts);
      ex.exchange(comm, ids[r], deltas[r], out_ids, out_rows, nullptr);
      benchmark::DoNotOptimize(out_rows.data().data());
    });
  }

  const auto total = world.total_ledger();
  // Swap each coded gradient leg's logical bytes for its encoded bytes;
  // the index varint leg's allgatherv already moves (and books) the
  // encoded payload.
  double wire = static_cast<double>(total.bytes_sent);
  for (const CodecSlot c : {CodecSlot::Packed, CodecSlot::Int8}) {
    const CodecTraffic& slot = total.codec_slot(c);
    wire += static_cast<double>(slot.wire_bytes) -
            static_cast<double>(slot.logical_bytes);
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["wire_bytes_per_step"] = benchmark::Counter(wire / iters);
  state.counters["logical_bytes_per_step"] =
      benchmark::Counter(static_cast<double>(total.bytes_sent) / iters);
}

void BM_UniqueExchangeFp32(benchmark::State& state) {
  run_coded_exchange(state, WirePrecision::FP32, WireCodec::None);
}
void BM_UniqueExchangeFp16(benchmark::State& state) {
  run_coded_exchange(state, WirePrecision::FP16, WireCodec::None);
}
void BM_UniqueExchangePacked(benchmark::State& state) {
  run_coded_exchange(state, WirePrecision::FP32, WireCodec::Packed);
}
void BM_UniqueExchangeInt8(benchmark::State& state) {
  run_coded_exchange(state, WirePrecision::FP32, WireCodec::Int8);
}

void format_sweep(benchmark::internal::Benchmark* b) {
  for (const int g : {4, 8}) b->Args({g, 1024, 256});
  b->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_UniqueExchangeFp32)->Apply(format_sweep)->UseRealTime();
BENCHMARK(BM_UniqueExchangeFp16)->Apply(format_sweep)->UseRealTime();
BENCHMARK(BM_UniqueExchangePacked)->Apply(format_sweep)->UseRealTime();
BENCHMARK(BM_UniqueExchangeInt8)->Apply(format_sweep)->UseRealTime();

}  // namespace
}  // namespace zipflm

BENCHMARK_MAIN();
