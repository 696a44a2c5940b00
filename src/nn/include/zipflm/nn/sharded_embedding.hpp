// Row-sharded input embedding table (ROADMAP item 4, the OOM frontier).
//
// Rank r of a G-way shard owns table rows [r*V/G, (r+1)*V/G) plus the
// matching Adam moment slices — per-rank table memory drops by ~G while
// the paper's uniqueness optimization keeps the exchange small: only
// the step's unique rows ever cross the wire, pulled before forward and
// pushed (summed) after backward by the ShardedEmbeddingExchange.
//
// Determinism contract: the constructor draws the FULL V x D RNG stream
// in Tensor::uniform's element order and keeps only the owned rows, so
// every shard slice is bitwise identical to the same rows of a
// replicated table built from the same fork.  Forward reads a
// step-scoped row cache installed by the pull exchange; the layer never
// materializes the full table.
#pragma once

#include <span>
#include <vector>

#include "zipflm/nn/param.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/tensor/tensor.hpp"

namespace zipflm {

class ShardedEmbedding {
 public:
  ShardedEmbedding(Index vocab, Index dim, int shard_rank, int shard_world,
                   Rng& rng, float init_scale = 0.05f);

  Index vocab() const noexcept { return vocab_; }
  Index dim() const noexcept { return dim_; }
  Index row_begin() const noexcept { return row_begin_; }
  Index row_end() const noexcept { return row_end_; }
  Index owned_rows() const noexcept { return row_end_ - row_begin_; }
  int shard_rank() const noexcept { return shard_rank_; }
  int shard_world() const noexcept { return shard_world_; }
  bool owns(Index id) const noexcept {
    return id >= row_begin_ && id < row_end_;
  }

  /// Owner rank of a global row id under this table's split: the r with
  /// V*r < (id+1)*G <= V*(r+1), i.e. ceil((id+1)*G/V) - 1.
  int owner_of(Index id) const noexcept {
    return static_cast<int>(((id + 1) * static_cast<Index>(shard_world_) - 1) /
                            vocab_);
  }

  /// The owned slice: value is (owned_rows x dim); row-sparse, so no
  /// dense grad — pushed gradient rows are applied by id.
  Param& param() noexcept { return shard_; }
  const Param& param() const noexcept { return shard_; }

  /// Install the step's pulled rows: ids sorted ascending and unique,
  /// rows one per id.  Replaces any previous cache.
  void install_rows(std::vector<Index> ids, Tensor rows);
  void clear_cache() noexcept;
  bool cache_ready() const noexcept { return !cache_ids_.empty(); }
  const std::vector<Index>& cached_ids() const noexcept { return cache_ids_; }

  /// out[i] = pulled row of ids[i]; out must be (ids.size() x dim) and
  /// every id must be in the installed cache.
  void forward(std::span<const Index> ids, Tensor& out) const;

  /// Gather rows of OWNED global ids straight from the shard (the push
  /// reply path and tests); out is resized to (ids.size() x dim).
  void gather_owned(std::span<const Index> ids, Tensor& out) const;

 private:
  Index vocab_ = 0;
  Index dim_ = 0;
  Index row_begin_ = 0;
  Index row_end_ = 0;
  int shard_rank_ = 0;
  int shard_world_ = 1;
  Param shard_;
  std::vector<Index> cache_ids_;
  Tensor cache_rows_;
};

/// First owned row of shard r in a G-way split of V rows — shared by
/// the layer, the exchange, and the checkpoint re-shard path so every
/// component agrees on the boundaries.
inline Index shard_row_begin(Index vocab, int rank, int world) {
  return vocab * static_cast<Index>(rank) / static_cast<Index>(world);
}

}  // namespace zipflm
