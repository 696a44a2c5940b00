// Output embedding + softmax + cross-entropy, in the two flavours the
// paper evaluates:
//
//  * FullSoftmaxLoss — normalizes over the whole vocabulary (used by the
//    char LM, Section IV-B, where |V| is small).  The output-embedding
//    gradient is dense and synchronizes with ALLREDUCE like any other
//    parameter.
//  * SampledSoftmaxLoss — normalizes over a candidate subset S ∪ targets
//    (word LM).  The output-embedding gradient is row-sparse over the
//    candidate ids, which is exactly the gradient the paper's seeding +
//    uniqueness techniques synchronize; the table holds no dense one.
#pragma once

#include <span>

#include "zipflm/nn/param.hpp"
#include "zipflm/support/rng.hpp"

namespace zipflm {

class FullSoftmaxLoss {
 public:
  FullSoftmaxLoss(Index vocab, Index dim, Rng& rng, float init_scale = 0.05f);

  /// h: [N x dim] final hidden states; targets: N token ids.
  /// Returns mean cross-entropy (nats/token); fills dh and accumulates
  /// gradients into embedding()/bias().
  float forward_backward(const Tensor& h, std::span<const Index> targets,
                         Tensor& dh);

  /// Evaluation-only loss (no gradients).
  float loss(const Tensor& h, std::span<const Index> targets) const;

  /// Raw logits over the whole vocabulary: logits = h E^T + b.
  void full_logits(const Tensor& h, Tensor& logits) const;

  Param& embedding() noexcept { return emb_; }
  Param& bias() noexcept { return bias_; }
  Index vocab() const { return emb_.value.rows(); }
  Index dim() const { return emb_.value.cols(); }

 private:
  Param emb_;   ///< [V x dim]
  Param bias_;  ///< [V]
};

/// Row-sparse gradient of the output embedding produced by one step of
/// sampled softmax: d_rows[i] is the gradient of embedding row ids[i].
/// ids are unique within one step by construction.
struct SparseRowGrad {
  std::vector<Index> ids;
  Tensor rows;      ///< [ids.size() x dim]
  Tensor bias_rows; ///< [ids.size()] gradient of the per-word bias
};

class SampledSoftmaxLoss {
 public:
  SampledSoftmaxLoss(Index vocab, Index dim, Rng& rng,
                     float init_scale = 0.05f);

  /// candidates: unique candidate ids; every target must appear in it
  /// (the layer validates).  Returns mean CE over the candidate set and
  /// fills dh plus the sparse output-embedding gradient.
  ///
  /// log_expected_counts (optional, one per candidate): the sampled-
  /// softmax correction of Jean et al. / [29] — logit_j -= log E[count_j]
  /// under the proposal distribution, which de-biases the truncated
  /// softmax toward the full one.  Pass empty to skip (the paper's
  /// simplified "include the targets" variant).
  float forward_backward(const Tensor& h, std::span<const Index> targets,
                         std::span<const Index> candidates, Tensor& dh,
                         SparseRowGrad& grad,
                         std::span<const float> log_expected_counts = {});

  /// Evaluation against the full vocabulary (perplexity must be measured
  /// over V, not over the sampled subset).
  float full_loss(const Tensor& h, std::span<const Index> targets) const;

  /// Raw logits over the whole vocabulary (evaluation / generation).
  void full_logits(const Tensor& h, Tensor& logits) const;

  Param& embedding() noexcept { return emb_; }
  Param& bias() noexcept { return bias_; }
  Index vocab() const { return emb_.value.rows(); }
  Index dim() const { return emb_.value.cols(); }

 private:
  Param emb_;
  Param bias_;
};

}  // namespace zipflm
