// Input/output embedding table (Section II-A).
//
// Forward is a row gather.  Backward does NOT touch the table: it hands
// the caller the dense per-token gradient ∆ (K x D) plus the token ids,
// because applying ∆ is exactly the step the paper's distributed exchange
// algorithms (dense ALLGATHER baseline vs UNIQUE) own.  The table is
// therefore row-sparse: it holds no V x D gradient.
#pragma once

#include <span>

#include "zipflm/nn/param.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/tensor/ops.hpp"

namespace zipflm {

class Embedding {
 public:
  Embedding(Index vocab, Index dim, Rng& rng, float init_scale = 0.05f)
      : table_(Param::row_sparse(
            "embedding",
            Tensor::uniform({vocab, dim}, rng, -init_scale, init_scale))) {}

  Index vocab() const { return table_.value.rows(); }
  Index dim() const { return table_.value.cols(); }

  Param& param() noexcept { return table_; }
  const Param& param() const noexcept { return table_; }

  /// out[i] = table[ids[i]]; out must be (ids.size() x dim).
  void forward(std::span<const Index> ids, Tensor& out) const {
    gather_rows(table_.value, ids, out);
  }

 private:
  Param table_;
};

}  // namespace zipflm
