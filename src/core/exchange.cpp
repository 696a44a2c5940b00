#include "zipflm/core/exchange.hpp"

#include <algorithm>
#include <cstring>

#include "zipflm/support/thread_pool.hpp"
#include "zipflm/tensor/cast.hpp"
#include "zipflm/tensor/ops.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {

namespace {

constexpr std::size_t wire_width(WirePrecision p) {
  return p == WirePrecision::FP16 ? sizeof(Half) : sizeof(float);
}

/// Position of id in a sorted unique vector.
Index position_of(const std::vector<Index>& sorted_ids, Index id) {
  const auto it = std::lower_bound(sorted_ids.begin(), sorted_ids.end(), id);
  ZIPFLM_ASSERT(it != sorted_ids.end() && *it == id,
                "id missing from the unique index set");
  return static_cast<Index>(it - sorted_ids.begin());
}

std::vector<Index> sorted_unique(std::span<const Index> ids) {
  std::vector<Index> u(ids.begin(), ids.end());
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

}  // namespace

/// The id ALLGATHER every strategy needs: consume an eagerly gathered
/// result when armed (asserting it was built from these ids), otherwise
/// run the collective inline.
void gather_ids(Communicator& comm, std::span<const Index> ids,
                const PendingIdGather* pending, std::vector<Index>& all_ids) {
  if (pending != nullptr && pending->armed) {
    ZIPFLM_ASSERT(pending->ids.size() == ids.size() &&
                      std::equal(ids.begin(), ids.end(), pending->ids.begin()),
                  "pending id gather was armed with different ids");
    all_ids = pending->all_ids;
    return;
  }
  comm.allgatherv(ids, all_ids);
}

void begin_id_gather(AsyncCommEngine& engine, std::span<const Index> ids,
                     PendingIdGather& out) {
  out.ids.assign(ids.begin(), ids.end());
  out.all_ids.clear();
  out.armed = true;
  engine.submit("eager_id_allgather", out.ids.size() * sizeof(Index),
                [&out](Communicator& comm) {
                  comm.allgatherv(std::span<const Index>(out.ids),
                                  out.all_ids);
                });
}

void local_reduce_by_word(std::span<const Index> ids, const Tensor& delta,
                          std::vector<Index>& unique_ids, Tensor& reduced) {
  ZIPFLM_CHECK(delta.rank() == 2 &&
                   delta.rows() == static_cast<Index>(ids.size()),
               "one gradient row per token");
  unique_ids = sorted_unique(ids);
  const Index d = delta.cols();
  const std::size_t u = unique_ids.size();
  reduced = Tensor({static_cast<Index>(u), d});

  // Counting-sort the token positions into per-unique-row buckets so the
  // reduction can be split across unique rows: each row's tokens stay in
  // ascending original order, which makes every chunking (and the serial
  // loop above this replaced) accumulate bitwise-identically.
  std::vector<std::size_t> row_of(ids.size());
  std::vector<std::size_t> offsets(u + 1, 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    row_of[i] = static_cast<std::size_t>(position_of(unique_ids, ids[i]));
    ++offsets[row_of[i] + 1];
  }
  for (std::size_t r = 0; r < u; ++r) offsets[r + 1] += offsets[r];
  std::vector<std::size_t> order(ids.size());
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.begin() +
                                                         static_cast<std::ptrdiff_t>(u));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      order[cursor[row_of[i]]++] = i;
    }
  }

  const float* src_base = delta.data().data();
  float* dst_base = reduced.data().data();
  const auto dn = static_cast<std::size_t>(d);
  ThreadPool::global().parallel_chunks(
      u,
      [&](std::size_t rb, std::size_t re) {
        for (std::size_t r = rb; r < re; ++r) {
          float* dst = dst_base + r * dn;
          for (std::size_t t = offsets[r]; t < offsets[r + 1]; ++t) {
            simd::add_inplace(dst, src_base + order[t] * dn, dn);
          }
        }
      },
      /*grain=*/1);
}

// ---------------------------------------------------------------------------
// DenseExchange: the Θ(G·K·D) ALLGATHER baseline of Section II.
// ---------------------------------------------------------------------------

void DenseExchange::exchange(Communicator& comm, std::span<const Index> ids,
                             const Tensor& delta, std::vector<Index>& out_ids,
                             Tensor& out_rows, MemoryPool* pool,
                             const PendingIdGather* pending) {
  const int g = comm.world_size();
  const std::size_t k = ids.size();
  const Index d = delta.cols();
  ZIPFLM_CHECK(delta.rows() == static_cast<Index>(k),
               "one gradient row per token");

  // The receive buffers that make the baseline collapse: G·K ids plus
  // G·K·D gradient values must be resident at once.
  const std::size_t gk = static_cast<std::size_t>(g) * k;
  const std::size_t scratch_bytes =
      gk * sizeof(Index) +
      gk * static_cast<std::size_t>(d) * wire_width(options_.precision) +
      (options_.precision == WirePrecision::FP16
           ? gk * static_cast<std::size_t>(d) * sizeof(float)  // upcast copy
           : 0);
  Allocation scratch;
  if (pool != nullptr) {
    scratch = pool->allocate(scratch_bytes, "dense-exchange scratch");
  }

  // allgatherv rather than allgather: the output-embedding path hands us
  // per-rank candidate sets of (slightly) different sizes.
  std::vector<Index> all_ids;
  gather_ids(comm, ids, pending, all_ids);

  // Gather the gradient payload at the configured wire precision.
  Tensor all_delta({static_cast<Index>(all_ids.size()), d});
  if (options_.precision == WirePrecision::FP32) {
    std::vector<float> gathered;
    comm.allgatherv(delta.data(), gathered);
    std::memcpy(all_delta.data().data(), gathered.data(),
                gathered.size() * sizeof(float));
  } else {
    std::vector<Half> wire;
    compress_fp16(delta.data(), options_.compression_scale, wire);
    std::vector<Half> gathered;
    comm.allgatherv(std::span<const Half>(wire), gathered);
    std::vector<float> up;
    decompress_fp16(gathered, options_.compression_scale, up);
    std::memcpy(all_delta.data().data(), up.data(), up.size() * sizeof(float));
  }

  // Apply in rank-major token order — the reference accumulation the
  // paper's Figure 3 baseline performs (serialized per row).
  out_ids = sorted_unique(all_ids);
  out_rows = Tensor({static_cast<Index>(out_ids.size()), d});
  for (std::size_t i = 0; i < all_ids.size(); ++i) {
    const Index row = position_of(out_ids, all_ids[i]);
    const auto src = all_delta.row(static_cast<Index>(i));
    auto dst = out_rows.row(row);
    simd::add_inplace(dst.data(), src.data(), dst.size());
  }
}

// ---------------------------------------------------------------------------
// UniqueExchange: Section III-A, steps 1-7.
// ---------------------------------------------------------------------------

void UniqueExchange::exchange(Communicator& comm, std::span<const Index> ids,
                              const Tensor& delta, std::vector<Index>& out_ids,
                              Tensor& out_rows, MemoryPool* pool,
                              const PendingIdGather* pending) {
  const int g = comm.world_size();
  const std::size_t k = ids.size();
  const Index d = delta.cols();
  ZIPFLM_CHECK(delta.rows() == static_cast<Index>(k),
               "one gradient row per token");

  // Steps 1-2: local unique indices Ĵ and locally reduced gradients ∆̂.
  std::vector<Index> local_ids;
  Tensor local_reduced;
  local_reduce_by_word(ids, delta, local_ids, local_reduced);

  // Step 3: ALLGATHER over the K word indices only — Θ(G·K) memory.
  // With an armed PendingIdGather this already happened on the comm
  // thread, under the forward/backward compute.
  std::vector<Index> all_ids;
  gather_ids(comm, ids, pending, all_ids);

  // Step 4: globally consistent unique index set Î (sorted => identical
  // order on every rank).
  out_ids = sorted_unique(all_ids);
  const std::size_t ug = out_ids.size();

  const std::size_t scratch_bytes =
      all_ids.size() * sizeof(Index) +
      ug * static_cast<std::size_t>(d) * sizeof(float) +
      (options_.precision == WirePrecision::FP16
           ? ug * static_cast<std::size_t>(d) * sizeof(Half)
           : 0);
  Allocation scratch;
  if (pool != nullptr) {
    scratch = pool->allocate(scratch_bytes, "unique-exchange scratch");
  }

  // Step 5: scatter ∆̂ into the shared U_g x D layout M.
  out_rows = Tensor({static_cast<Index>(ug), d});
  for (std::size_t i = 0; i < local_ids.size(); ++i) {
    const Index row = position_of(out_ids, local_ids[i]);
    const auto src = local_reduced.row(static_cast<Index>(i));
    auto dst = out_rows.row(row);
    std::copy(src.begin(), src.end(), dst.begin());
  }

  // Step 6: ALLREDUCE over M — Θ(U_g·D) wire bytes.
  if (g > 1) {
    WireCodecScope codec_scope(comm, options_.codec);
    if (options_.precision == WirePrecision::FP32) {
      comm.allreduce_sum(out_rows.data());
    } else {
      std::vector<Half> wire;
      compress_fp16(out_rows.data(), options_.compression_scale, wire);
      comm.allreduce_sum(std::span<Half>(wire));
      std::vector<float> up;
      decompress_fp16(wire, options_.compression_scale, up);
      std::memcpy(out_rows.data().data(), up.data(),
                  up.size() * sizeof(float));
    }
  }
  // Step 7 (applying M̂ to E via Î) belongs to the optimizer, which can
  // now update every row in parallel without locking — all ids unique.
}

// ---------------------------------------------------------------------------
// TableAllreduceExchange: the dense-materialization alternative.
// ---------------------------------------------------------------------------

void TableAllreduceExchange::exchange(Communicator& comm,
                                      std::span<const Index> ids,
                                      const Tensor& delta,
                                      std::vector<Index>& out_ids,
                                      Tensor& out_rows, MemoryPool* pool,
                                      const PendingIdGather* pending) {
  const Index d = delta.cols();
  ZIPFLM_CHECK(delta.rows() == static_cast<Index>(ids.size()),
               "one gradient row per token");

  const std::size_t table_bytes = static_cast<std::size_t>(vocab_) *
                                  static_cast<std::size_t>(d) * sizeof(float);
  Allocation scratch;
  if (pool != nullptr) {
    scratch = pool->allocate(
        table_bytes + (options_.precision == WirePrecision::FP16
                           ? table_bytes / 2
                           : 0),
        "table-allreduce dense gradient");
  }

  // Materialize: scatter-add the token gradients into the dense table.
  Tensor table({vocab_, d});
  scatter_add_rows(delta, ids, table);

  if (comm.world_size() > 1) {
    WireCodecScope codec_scope(comm, options_.codec);
    if (options_.precision == WirePrecision::FP32) {
      comm.allreduce_sum(table.data());
    } else {
      std::vector<Half> wire;
      compress_fp16(table.data(), options_.compression_scale, wire);
      comm.allreduce_sum(std::span<Half>(wire));
      std::vector<float> up;
      decompress_fp16(wire, options_.compression_scale, up);
      std::memcpy(table.data().data(), up.data(), up.size() * sizeof(float));
    }
  }

  // The touched-row set still needs agreeing on (zero rows of the summed
  // table are not proof a row was untouched — gradients can cancel):
  // gather the indices exactly as UNIQUE does.
  std::vector<Index> all_ids;
  gather_ids(comm, ids, pending, all_ids);
  out_ids = sorted_unique(all_ids);
  out_rows = Tensor({static_cast<Index>(out_ids.size()), d});
  gather_rows(table, out_ids, out_rows);
}

// ---------------------------------------------------------------------------
// Closed-form accounting.
// ---------------------------------------------------------------------------

namespace {
/// Total wire bytes of one allgatherv where every rank contributes
/// `block` bytes: the payload ring plus the size exchange.
std::uint64_t allgatherv_total_bytes(std::uint64_t g, std::uint64_t block) {
  if (g <= 1) return 0;
  return (g - 1) * g * block + g * (g - 1) * sizeof(std::size_t);
}
}  // namespace

std::uint64_t dense_exchange_total_wire_bytes(int world, std::uint64_t tokens,
                                              std::uint64_t dim,
                                              WirePrecision precision) {
  const std::uint64_t g = static_cast<std::uint64_t>(world);
  return allgatherv_total_bytes(g, tokens * sizeof(Index)) +
         allgatherv_total_bytes(g, tokens * dim * wire_width(precision));
}

std::uint64_t unique_exchange_total_wire_bytes(int world, std::uint64_t tokens,
                                               std::uint64_t global_unique,
                                               std::uint64_t dim,
                                               WirePrecision precision) {
  const std::uint64_t g = static_cast<std::uint64_t>(world);
  const std::uint64_t reduce =
      g > 1 ? 2 * (g - 1) * global_unique * dim * wire_width(precision) : 0;
  return allgatherv_total_bytes(g, tokens * sizeof(Index)) + reduce;
}

}  // namespace zipflm
