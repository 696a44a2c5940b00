#include "zipflm/nn/sharded_embedding.hpp"

#include <algorithm>
#include <cstring>

#include "zipflm/support/error.hpp"

namespace zipflm {

namespace {

Tensor owned_slice_of_full_stream(Index vocab, Index dim, Index row_begin,
                                  Index row_end, Rng& rng, float init_scale) {
  Tensor table({row_end - row_begin, dim});
  std::span<float> out = table.data();
  std::size_t w = 0;
  // Consume the FULL V x D stream in Tensor::uniform's element order so
  // the kept rows are bitwise identical to the same rows of a
  // replicated table drawn from the same fork.
  for (Index v = 0; v < vocab; ++v) {
    const bool own = v >= row_begin && v < row_end;
    for (Index j = 0; j < dim; ++j) {
      const float x =
          static_cast<float>(rng.uniform(-init_scale, init_scale));
      if (own) out[w++] = x;
    }
  }
  return table;
}

}  // namespace

ShardedEmbedding::ShardedEmbedding(Index vocab, Index dim, int shard_rank,
                                   int shard_world, Rng& rng,
                                   float init_scale)
    : vocab_(vocab),
      dim_(dim),
      row_begin_(shard_row_begin(vocab, shard_rank, shard_world)),
      row_end_(shard_row_begin(vocab, shard_rank + 1, shard_world)),
      shard_rank_(shard_rank),
      shard_world_(shard_world),
      shard_(Param::row_sparse(
          "embedding.shard",
          owned_slice_of_full_stream(vocab, dim, row_begin_, row_end_, rng,
                                     init_scale))) {
  ZIPFLM_CHECK(vocab > 0 && dim > 0, "sharded embedding needs a real table");
  ZIPFLM_CHECK(shard_world >= 1 && shard_rank >= 0 && shard_rank < shard_world,
               "shard rank out of range");
  ZIPFLM_CHECK(vocab >= static_cast<Index>(shard_world),
               "fewer table rows than shards");
}

void ShardedEmbedding::install_rows(std::vector<Index> ids, Tensor rows) {
  ZIPFLM_CHECK(rows.rank() == 2 &&
                   rows.rows() == static_cast<Index>(ids.size()) &&
                   rows.cols() == dim_,
               "pulled row block shape mismatch");
  ZIPFLM_ASSERT(std::is_sorted(ids.begin(), ids.end()) &&
                    std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                "pulled ids must be sorted and unique");
  cache_ids_ = std::move(ids);
  cache_rows_ = std::move(rows);
}

void ShardedEmbedding::clear_cache() noexcept {
  cache_ids_.clear();
  cache_rows_ = Tensor();
}

void ShardedEmbedding::forward(std::span<const Index> ids, Tensor& out) const {
  ZIPFLM_CHECK(out.rank() == 2 &&
                   out.rows() == static_cast<Index>(ids.size()) &&
                   out.cols() == dim_,
               "embedding forward output shape mismatch");
  const std::size_t d = static_cast<std::size_t>(dim_);
  std::span<float> dst = out.data();
  std::span<const float> src = cache_rows_.data();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto it =
        std::lower_bound(cache_ids_.begin(), cache_ids_.end(), ids[i]);
    ZIPFLM_CHECK(it != cache_ids_.end() && *it == ids[i],
                 "token row missing from the pulled cache (pull not run?)");
    const auto pos =
        static_cast<std::size_t>(std::distance(cache_ids_.begin(), it));
    std::memcpy(dst.data() + i * d, src.data() + pos * d, d * sizeof(float));
  }
}

void ShardedEmbedding::gather_owned(std::span<const Index> ids,
                                    Tensor& out) const {
  out = Tensor({static_cast<Index>(ids.size()), dim_});
  const std::size_t d = static_cast<std::size_t>(dim_);
  std::span<float> dst = out.data();
  std::span<const float> src = shard_.value.data();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ZIPFLM_CHECK(owns(ids[i]), "gather_owned id outside this shard");
    const auto pos = static_cast<std::size_t>(ids[i] - row_begin_);
    std::memcpy(dst.data() + i * d, src.data() + pos * d, d * sizeof(float));
  }
}

}  // namespace zipflm
