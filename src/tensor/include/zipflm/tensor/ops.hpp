// Kernels over Tensor: BLAS-3, elementwise activations and their
// derivatives, row softmax, reductions, row gather / scatter-add.
//
// All kernels are deterministic: parallel decomposition never changes the
// floating-point accumulation order of a single output element, which the
// exchange-equivalence tests in core/ rely on.
#pragma once

#include <span>

#include "zipflm/tensor/tensor.hpp"

namespace zipflm {

/// C = alpha * op(A) * op(B) + beta * C.  op is identity or transpose.
/// Shapes are validated against the requested transposes.
void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha = 1.0f, float beta = 0.0f);

/// y += alpha * x (same total size; shape-agnostic).
void axpy(float alpha, const Tensor& x, Tensor& y);

/// x *= alpha.
void scale(Tensor& x, float alpha);
void scale(std::span<float> x, float alpha);

/// Elementwise y = f(x); x and y may alias.
void sigmoid(const Tensor& x, Tensor& y);
void tanh_op(const Tensor& x, Tensor& y);
void relu(const Tensor& x, Tensor& y);

/// Given activation output y (not pre-activation), write f'(x) expressed in
/// terms of y: sigmoid' = y(1-y), tanh' = 1-y^2.  dy may alias y.
void sigmoid_grad_from_output(const Tensor& y, Tensor& dy);
void tanh_grad_from_output(const Tensor& y, Tensor& dy);

/// Elementwise product z = x ⊙ y (z may alias either input).
void hadamard(const Tensor& x, const Tensor& y, Tensor& z);

/// Row-wise softmax of a matrix (numerically stabilized by row max).
void softmax_rows(const Tensor& logits, Tensor& probs);

/// Row-wise log-softmax.
void log_softmax_rows(const Tensor& logits, Tensor& log_probs);

/// Reductions.
float sum(const Tensor& x);
float max_abs(const Tensor& x);
float l2_norm(const Tensor& x);

/// out.row(i) = table.row(ids[i]).  The embedding forward pass.
void gather_rows(const Tensor& table, std::span<const Index> ids, Tensor& out);

/// table.row(ids[i]) += grad.row(i), accumulated in the order given —
/// the single-GPU embedding backward pass the paper describes (the
/// "reverse mapping" accumulation).
void scatter_add_rows(const Tensor& grad, std::span<const Index> ids,
                      Tensor& table);

/// Bias helpers: y.row(i) += bias for all rows; db[j] += sum_i dy(i,j).
void add_bias_rows(Tensor& y, const Tensor& bias);
void bias_grad(const Tensor& dy, Tensor& db);

/// Clip every element into [-limit, limit].
void clip(Tensor& x, float limit);

}  // namespace zipflm
