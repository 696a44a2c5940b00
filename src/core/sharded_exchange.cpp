#include "zipflm/core/sharded_exchange.hpp"

#include <algorithm>
#include <cstring>

#include "zipflm/comm/wire_codec.hpp"
#include "zipflm/device/device.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {

namespace {

std::vector<Index> sorted_unique(std::span<const Index> ids) {
  std::vector<Index> u(ids.begin(), ids.end());
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

/// Per-owner segment offsets [off[o], off[o+1]) of a sorted id vector
/// under the shard_row_begin split — sorted ids make every owner's
/// slice contiguous.
std::vector<std::size_t> owner_offsets(const std::vector<Index>& ids,
                                       Index vocab, int g) {
  std::vector<std::size_t> off(static_cast<std::size_t>(g) + 1, 0);
  for (int o = 1; o <= g; ++o) {
    off[static_cast<std::size_t>(o)] = static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(),
                         shard_row_begin(vocab, o, g)) -
        ids.begin());
  }
  return off;
}

/// Ring chunk of element p under Communicator::ring_chunk's split of
/// n elements into g chunks (the first n%g one larger).
std::size_t chunk_of(std::size_t p, std::size_t n, int g) {
  const std::size_t q = n / static_cast<std::size_t>(g);
  const std::size_t rem = n % static_cast<std::size_t>(g);
  if (p < rem * (q + 1)) return p / (q + 1);
  return rem + (p - rem * (q + 1)) / q;
}

/// Id alltoallv: each destination gets its segment of the sorted ids.
/// recv_ids is the concatenation by source; recv_off its per-source
/// offsets.
void alltoallv_ids(Communicator& comm, const std::vector<Index>& ids,
                   const std::vector<std::size_t>& off,
                   std::vector<Index>& recv_ids,
                   std::vector<std::size_t>& recv_off) {
  const int g = comm.world_size();
  std::vector<std::size_t> counts(static_cast<std::size_t>(g));
  for (int o = 0; o < g; ++o) {
    counts[static_cast<std::size_t>(o)] =
        off[static_cast<std::size_t>(o) + 1] - off[static_cast<std::size_t>(o)];
  }
  std::vector<std::size_t> recv_counts;
  comm.alltoallv(std::span<const Index>(ids), counts, recv_ids, recv_counts);
  recv_off.assign(static_cast<std::size_t>(g) + 1, 0);
  for (int s = 0; s < g; ++s) {
    recv_off[static_cast<std::size_t>(s) + 1] =
        recv_off[static_cast<std::size_t>(s)] +
        recv_counts[static_cast<std::size_t>(s)];
  }
}

/// Row alltoallv: per-destination float blocks (counts in rows), coded
/// per block when codec != None.  recv_rows is the concatenation by
/// source, one row per received id.
void alltoallv_rows(Communicator& comm, const Tensor& rows,
                    const std::vector<std::size_t>& off, Index d,
                    WireCodec codec,
                    const std::vector<std::size_t>& recv_row_off,
                    std::vector<float>& recv_rows) {
  const int g = comm.world_size();
  const auto dn = static_cast<std::size_t>(d);
  std::span<const float> src = rows.data();
  if (codec == WireCodec::None) {
    std::vector<std::size_t> counts(static_cast<std::size_t>(g));
    for (int o = 0; o < g; ++o) {
      counts[static_cast<std::size_t>(o)] =
          (off[static_cast<std::size_t>(o) + 1] -
           off[static_cast<std::size_t>(o)]) *
          dn;
    }
    std::vector<std::size_t> recv_counts;
    comm.alltoallv(src, counts, recv_rows, recv_counts);
    return;
  }
  // Coded path: each destination block encoded independently (the
  // decode side knows its element count from the id round), the same
  // deterministic decode(encode(x)) every backend applies.
  std::vector<std::byte> payload, block;
  std::vector<std::size_t> counts(static_cast<std::size_t>(g));
  for (int o = 0; o < g; ++o) {
    const std::size_t rows_o = off[static_cast<std::size_t>(o) + 1] -
                               off[static_cast<std::size_t>(o)];
    if (rows_o != 0) {
      encode_grad_chunk(
          codec,
          std::span<const float>(
              src.data() + off[static_cast<std::size_t>(o)] * dn,
              rows_o * dn),
          block);
    } else {
      block.clear();
    }
    counts[static_cast<std::size_t>(o)] = block.size();
    payload.insert(payload.end(), block.begin(), block.end());
  }
  std::vector<std::byte> enc;
  std::vector<std::size_t> enc_counts;
  comm.alltoallv_bytes(payload, counts, enc, enc_counts);
  recv_rows.assign(recv_row_off.back() * dn, 0.0f);
  std::size_t boff = 0;
  for (int s = 0; s < g; ++s) {
    const std::size_t rows_s = recv_row_off[static_cast<std::size_t>(s) + 1] -
                               recv_row_off[static_cast<std::size_t>(s)];
    if (rows_s != 0) {
      decode_grad_chunk(
          codec,
          std::span<const std::byte>(enc.data() + boff,
                                     enc_counts[static_cast<std::size_t>(s)]),
          std::span<float>(recv_rows.data() +
                               recv_row_off[static_cast<std::size_t>(s)] * dn,
                           rows_s * dn));
    }
    boff += enc_counts[static_cast<std::size_t>(s)];
  }
  record_codec_traffic(comm.ledger(), recv_rows.size() * sizeof(float),
                       enc.size());
}

}  // namespace

ShardedEmbeddingExchange::ShardedEmbeddingExchange(Index vocab, Index dim,
                                                   ExchangeOptions options)
    : vocab_(vocab), dim_(dim), options_(options) {
  ZIPFLM_CHECK(vocab > 0 && dim > 0,
               "sharded exchange needs the table geometry");
  ZIPFLM_CHECK(options_.precision == WirePrecision::FP32,
               "sharded exchange moves FP32 rows (compression-scaled FP16 "
               "wire is a replicated-path feature)");
}

void ShardedEmbeddingExchange::pull(Communicator& comm, ShardedEmbedding& emb,
                                    std::span<const Index> batch_ids,
                                    MemoryPool* pool) {
  const int g = comm.world_size();
  ZIPFLM_CHECK(emb.shard_world() == g && emb.shard_rank() == comm.rank(),
               "shard layout does not match this communicator");
  std::vector<Index> my_ids = sorted_unique(batch_ids);
  const std::vector<std::size_t> off = owner_offsets(my_ids, vocab_, g);

  // Round 1: id requests to each owner (my sorted-unique ids are
  // already owner-contiguous).
  std::vector<Index> req_ids;
  std::vector<std::size_t> req_off;
  alltoallv_ids(comm, my_ids, off, req_ids, req_off);

  const auto dn = static_cast<std::size_t>(dim_);
  Allocation scratch;
  if (pool != nullptr) {
    scratch = pool->allocate(
        (my_ids.size() + req_ids.size()) * (sizeof(Index) + dn * sizeof(float)),
        "sharded-pull scratch");
  }

  // Round 2: row replies — gather each requested row from the shard.
  Tensor reply;
  emb.gather_owned(req_ids, reply);
  // Reply blocks go back to the sources, so the send partition is the
  // request partition; receive counts per source mirror `off`.
  // Pulled rows are weights and move raw whatever gradient codec is
  // armed (Int8 rows would desync the replicas' forward pass).
  std::vector<float> pulled;
  alltoallv_rows(comm, reply, req_off, dim_, WireCodec::None, off, pulled);
  ZIPFLM_CHECK(pulled.size() == my_ids.size() * dn,
               "pulled row payload size mismatch");

  // Blocks land by ascending owner = ascending id: exactly my_ids
  // order.
  Tensor rows({static_cast<Index>(my_ids.size()), dim_});
  std::memcpy(rows.data().data(), pulled.data(),
              pulled.size() * sizeof(float));
  emb.install_rows(std::move(my_ids), std::move(rows));
}

void ShardedEmbeddingExchange::exchange(Communicator& comm,
                                        std::span<const Index> ids,
                                        const Tensor& delta,
                                        std::vector<Index>& out_ids,
                                        Tensor& out_rows, MemoryPool* pool,
                                        const PendingIdGather* pending) {
  const int g = comm.world_size();
  const int r = comm.rank();
  const Index d = delta.cols();
  ZIPFLM_CHECK(d == dim_, "gradient row width mismatch");

  // Steps 1-2 (as in UNIQUE): local unique ids Ĵ and reduced rows ∆̂.
  std::vector<Index> lids;
  Tensor lrows;
  local_reduce_by_word(ids, delta, lids, lrows);

  // Step 3: the same id ALLGATHER the replicated strategies run — it
  // fixes the globally consistent Î whose M x D layout defines the
  // chunk geometry the owner fold below replays (and it consumes the
  // AsyncCommEngine's eager gather when armed).
  std::vector<Index> all_ids;
  gather_ids(comm, ids, pending, all_ids);
  const std::vector<Index> uids = sorted_unique(all_ids);
  const std::size_t m = uids.size();
  const auto dn = static_cast<std::size_t>(d);
  const std::size_t n = m * dn;  // the replicated allreduce's span

  // Step 4: ship ∆̂ rows to their owners — one id alltoallv, one row
  // alltoallv (codec applies per destination block).
  const std::vector<std::size_t> loff = owner_offsets(lids, vocab_, g);
  std::vector<Index> got_ids;
  std::vector<std::size_t> got_off;
  alltoallv_ids(comm, lids, loff, got_ids, got_off);
  std::vector<float> got_rows;
  alltoallv_rows(comm, lrows, loff, d, options_.codec, got_off, got_rows);
  ZIPFLM_CHECK(got_rows.size() == got_ids.size() * dn,
               "pushed row payload size mismatch");

  // Owned slice of Î.
  const Index my_lo = shard_row_begin(vocab_, r, g);
  const Index my_hi = shard_row_begin(vocab_, r + 1, g);
  const auto pos_lo = static_cast<std::size_t>(
      std::lower_bound(uids.begin(), uids.end(), my_lo) - uids.begin());
  const auto pos_hi = static_cast<std::size_t>(
      std::lower_bound(uids.begin(), uids.end(), my_hi) - uids.begin());
  out_ids.assign(uids.begin() + static_cast<std::ptrdiff_t>(pos_lo),
                 uids.begin() + static_cast<std::ptrdiff_t>(pos_hi));

  Allocation scratch;
  if (pool != nullptr) {
    scratch = pool->allocate(
        all_ids.size() * sizeof(Index) +
            (got_ids.size() + out_ids.size()) * dn * sizeof(float),
        "sharded-exchange scratch");
  }

  // Step 5: owner-side fold.  The replicated oracle allreduces the
  // M x D scatter of every rank's ∆̂ (zeros elsewhere); its ring
  // reduce-scatter leaves element p, in chunk c, as the left fold
  // x_c + x_{c+1} + ... + x_{c+g-1} (sources mod g, ascending from the
  // chunk index).  Rebuild exactly that: per owned row, per chunk
  // segment, fold the per-source contributions in that order with
  // explicit zero rows for sources that did not touch the id — the
  // +0.0 operands participate in IEEE addition there too.
  out_rows = Tensor({static_cast<Index>(out_ids.size()), d});
  std::vector<std::size_t> cur(static_cast<std::size_t>(g));
  for (int s = 0; s < g; ++s) {
    cur[static_cast<std::size_t>(s)] = got_off[static_cast<std::size_t>(s)];
  }
  const std::vector<float> zero(dn, 0.0f);
  std::vector<const float*> contrib(static_cast<std::size_t>(g));
  float* dst_base = out_rows.data().data();
  for (std::size_t pos = pos_lo; pos < pos_hi; ++pos) {
    const Index id = uids[pos];
    for (int s = 0; s < g; ++s) {
      auto& c = cur[static_cast<std::size_t>(s)];
      const std::size_t end_s = got_off[static_cast<std::size_t>(s) + 1];
      while (c < end_s && got_ids[c] < id) ++c;
      contrib[static_cast<std::size_t>(s)] =
          (c < end_s && got_ids[c] == id) ? got_rows.data() + c * dn
                                          : nullptr;
    }
    float* dst = dst_base + (pos - pos_lo) * dn;
    std::size_t p = pos * dn;
    const std::size_t row_end = p + dn;
    while (p < row_end) {
      const std::size_t c = chunk_of(p, n, g);
      const std::size_t seg_end = std::min(
          row_end,
          Communicator::ring_chunk(n, g, static_cast<int>(c)).end);
      const std::size_t len = seg_end - p;
      const std::size_t loc = p - pos * dn;
      for (int k = 0; k < g; ++k) {
        const auto s =
            static_cast<std::size_t>((c + static_cast<std::size_t>(k)) %
                                     static_cast<std::size_t>(g));
        const float* src =
            contrib[s] != nullptr ? contrib[s] + loc : zero.data();
        if (k == 0) {
          std::memcpy(dst + loc, src, len * sizeof(float));
        } else {
          simd::add_inplace(dst + loc, src, len);
        }
      }
      p = seg_end;
    }
  }
}

}  // namespace zipflm
