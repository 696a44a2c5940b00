// A trainable parameter: value + gradient accumulator.
// Dense parameters are synchronized with ALLREDUCE; embedding tables are
// special-cased by the exchange algorithms in zipflm::core.
#pragma once

#include <string>

#include "zipflm/tensor/tensor.hpp"

namespace zipflm {

struct Param {
  std::string name;
  Tensor value;
  /// Same shape as value — except on row-sparse tables, where it is
  /// empty: their gradient only ever exists as rows (the model's
  /// input_delta / SparseRowGrad), exchanged and applied by row id.
  Tensor grad;

  Param() = default;
  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  /// An embedding table: no dense gradient is ever allocated.
  static Param row_sparse(std::string n, Tensor v) {
    Param p;
    p.name = std::move(n);
    p.value = std::move(v);
    return p;
  }

  void zero_grad() { grad.zero(); }
  Index size() const noexcept { return value.size(); }
};

}  // namespace zipflm
