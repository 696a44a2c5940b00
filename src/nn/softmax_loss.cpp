#include "zipflm/nn/softmax_loss.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "zipflm/tensor/ops.hpp"

namespace zipflm {

FullSoftmaxLoss::FullSoftmaxLoss(Index vocab, Index dim, Rng& rng,
                                 float init_scale)
    : emb_("softmax.emb",
           Tensor::uniform({vocab, dim}, rng, -init_scale, init_scale)),
      bias_("softmax.bias", Tensor({vocab})) {}

float FullSoftmaxLoss::forward_backward(const Tensor& h,
                                        std::span<const Index> targets,
                                        Tensor& dh) {
  const Index n = h.rows();
  ZIPFLM_CHECK(static_cast<std::size_t>(n) == targets.size(),
               "one target per hidden state");
  Tensor logits({n, vocab()});
  gemm(h, false, emb_.value, true, logits, 1.0f, 0.0f);
  add_bias_rows(logits, bias_.value);

  Tensor probs({n, vocab()});
  softmax_rows(logits, probs);

  double loss = 0.0;
  const float invn = 1.0f / static_cast<float>(n);
  // Reuse probs as dlogits: dlogit = (p - onehot(target)) / N.
  for (Index i = 0; i < n; ++i) {
    const Index t = targets[static_cast<std::size_t>(i)];
    ZIPFLM_ASSERT(t >= 0 && t < vocab(), "target outside vocabulary");
    loss -= std::log(std::max(probs(i, t), 1e-30f));
    auto row = probs.row(i);
    for (float& v : row) v *= invn;
    probs(i, t) -= invn;
  }

  dh = Tensor({n, dim()});
  gemm(probs, false, emb_.value, false, dh, 1.0f, 0.0f);
  gemm(probs, true, h, false, emb_.grad, 1.0f, 1.0f);
  bias_grad(probs, bias_.grad);
  return static_cast<float>(loss / n);
}

void FullSoftmaxLoss::full_logits(const Tensor& h, Tensor& logits) const {
  logits = Tensor({h.rows(), vocab()});
  gemm(h, false, emb_.value, true, logits, 1.0f, 0.0f);
  add_bias_rows(logits, bias_.value);
}

float FullSoftmaxLoss::loss(const Tensor& h,
                            std::span<const Index> targets) const {
  const Index n = h.rows();
  ZIPFLM_CHECK(static_cast<std::size_t>(n) == targets.size(),
               "one target per hidden state");
  Tensor logits({n, vocab()});
  gemm(h, false, emb_.value, true, logits, 1.0f, 0.0f);
  add_bias_rows(logits, bias_.value);
  Tensor logp({n, vocab()});
  log_softmax_rows(logits, logp);
  double loss = 0.0;
  for (Index i = 0; i < n; ++i) {
    loss -= logp(i, targets[static_cast<std::size_t>(i)]);
  }
  return static_cast<float>(loss / n);
}

SampledSoftmaxLoss::SampledSoftmaxLoss(Index vocab, Index dim, Rng& rng,
                                       float init_scale)
    : emb_(Param::row_sparse(
          "softmax.emb",
          Tensor::uniform({vocab, dim}, rng, -init_scale, init_scale))),
      bias_("softmax.bias", Tensor({vocab})) {}

float SampledSoftmaxLoss::forward_backward(
    const Tensor& h, std::span<const Index> targets,
    std::span<const Index> candidates, Tensor& dh, SparseRowGrad& grad,
    std::span<const float> log_expected_counts) {
  const Index n = h.rows();
  const Index c = static_cast<Index>(candidates.size());
  ZIPFLM_CHECK(static_cast<std::size_t>(n) == targets.size(),
               "one target per hidden state");
  ZIPFLM_CHECK(c > 0, "candidate set must be non-empty");
  ZIPFLM_CHECK(log_expected_counts.empty() ||
                   log_expected_counts.size() == candidates.size(),
               "one log expected count per candidate");

  // Candidate id -> position, also validating uniqueness.
  std::unordered_map<Index, Index> pos;
  pos.reserve(static_cast<std::size_t>(c) * 2);
  for (Index j = 0; j < c; ++j) {
    const Index id = candidates[static_cast<std::size_t>(j)];
    ZIPFLM_ASSERT(id >= 0 && id < vocab(), "candidate outside vocabulary");
    const bool inserted = pos.emplace(id, j).second;
    ZIPFLM_CHECK(inserted, "candidate ids must be unique");
  }

  // Gather candidate embedding rows and biases into a compact block.
  Tensor cand_emb({c, dim()});
  gather_rows(emb_.value, candidates, cand_emb);
  Tensor logits({n, c});
  gemm(h, false, cand_emb, true, logits, 1.0f, 0.0f);
  for (Index i = 0; i < n; ++i) {
    auto row = logits.row(i);
    for (Index j = 0; j < c; ++j) {
      row[static_cast<std::size_t>(j)] +=
          bias_.value(candidates[static_cast<std::size_t>(j)]);
      if (!log_expected_counts.empty()) {
        row[static_cast<std::size_t>(j)] -=
            log_expected_counts[static_cast<std::size_t>(j)];
      }
    }
  }

  Tensor probs({n, c});
  softmax_rows(logits, probs);

  double loss = 0.0;
  const float invn = 1.0f / static_cast<float>(n);
  for (Index i = 0; i < n; ++i) {
    const auto it = pos.find(targets[static_cast<std::size_t>(i)]);
    ZIPFLM_CHECK(it != pos.end(),
                 "every target must be present in the candidate set");
    loss -= std::log(std::max(probs(i, it->second), 1e-30f));
    auto row = probs.row(i);
    for (float& v : row) v *= invn;
    probs(i, it->second) -= invn;
  }

  dh = Tensor({n, dim()});
  gemm(probs, false, cand_emb, false, dh, 1.0f, 0.0f);

  grad.ids.assign(candidates.begin(), candidates.end());
  grad.rows = Tensor({c, dim()});
  gemm(probs, true, h, false, grad.rows, 1.0f, 0.0f);
  grad.bias_rows = Tensor({c});
  bias_grad(probs, grad.bias_rows);
  return static_cast<float>(loss / n);
}

void SampledSoftmaxLoss::full_logits(const Tensor& h, Tensor& logits) const {
  logits = Tensor({h.rows(), vocab()});
  gemm(h, false, emb_.value, true, logits, 1.0f, 0.0f);
  add_bias_rows(logits, bias_.value);
}

float SampledSoftmaxLoss::full_loss(const Tensor& h,
                                    std::span<const Index> targets) const {
  const Index n = h.rows();
  ZIPFLM_CHECK(static_cast<std::size_t>(n) == targets.size(),
               "one target per hidden state");
  Tensor logits({n, vocab()});
  gemm(h, false, emb_.value, true, logits, 1.0f, 0.0f);
  add_bias_rows(logits, bias_.value);
  Tensor logp({n, vocab()});
  log_softmax_rows(logits, logp);
  double loss = 0.0;
  for (Index i = 0; i < n; ++i) {
    loss -= logp(i, targets[static_cast<std::size_t>(i)]);
  }
  return static_cast<float>(loss / n);
}

}  // namespace zipflm
