// Output-embedding losses: gradient checks and full-vs-sampled agreement.
#include <gtest/gtest.h>

#include <cmath>

#include "zipflm/nn/gradcheck.hpp"
#include "zipflm/nn/softmax_loss.hpp"

namespace zipflm {
namespace {

TEST(FullSoftmaxLoss, GradientsMatchFiniteDifferences) {
  Rng rng(1);
  const Index v = 7, d = 4, n = 5;
  FullSoftmaxLoss loss(v, d, rng);
  Tensor h = Tensor::randn({n, d}, rng, 0.8f);
  std::vector<Index> targets = {0, 3, 6, 3, 1};

  auto loss_fn = [&] { return static_cast<double>(loss.loss(h, targets)); };

  Tensor dh;
  loss.embedding().zero_grad();
  loss.bias().zero_grad();
  const float l = loss.forward_backward(h, targets, dh);
  EXPECT_NEAR(l, loss_fn(), 1e-5);

  EXPECT_TRUE(grad_check(h, dh, loss_fn, 3e-3).passed(3e-2));
  // The full softmax's output gradient is dense, so its table keeps one.
  ASSERT_EQ(loss.embedding().grad.shape(), loss.embedding().value.shape());
  EXPECT_TRUE(
      grad_check(loss.embedding().value, loss.embedding().grad, loss_fn, 3e-3)
          .passed(3e-2));
  EXPECT_TRUE(grad_check(loss.bias().value, loss.bias().grad, loss_fn, 1e-3)
                  .passed(3e-2));
}

TEST(FullSoftmaxLoss, UniformLogitsGiveLogVocabLoss) {
  Rng rng(2);
  const Index v = 50;
  FullSoftmaxLoss loss(v, 3, rng, /*init_scale=*/0.0f);  // zero embedding
  Tensor h({4, 3});
  std::vector<Index> targets = {0, 10, 20, 49};
  const float l = loss.loss(h, targets);
  EXPECT_NEAR(l, std::log(static_cast<float>(v)), 1e-4);
}

TEST(SampledSoftmaxLoss, MatchesFullWhenCandidatesAreWholeVocab) {
  Rng rng(3);
  const Index v = 9, d = 5, n = 6;
  SampledSoftmaxLoss sampled(v, d, rng);
  Tensor h = Tensor::randn({n, d}, rng, 0.5f);
  std::vector<Index> targets = {1, 8, 0, 4, 4, 2};
  std::vector<Index> all(static_cast<std::size_t>(v));
  for (Index i = 0; i < v; ++i) all[static_cast<std::size_t>(i)] = i;

  Tensor dh;
  SparseRowGrad grad;
  const float l = sampled.forward_backward(h, targets, all, dh, grad);
  const float full = sampled.full_loss(h, targets);
  EXPECT_NEAR(l, full, 1e-5);
  ASSERT_EQ(grad.ids.size(), static_cast<std::size_t>(v));
  // The sampled gradient is row-sparse: the table holds no dense one.
  EXPECT_TRUE(sampled.embedding().grad.empty());
}

TEST(SampledSoftmaxLoss, GradientsMatchFiniteDifferencesOnCandidateSet) {
  Rng rng(4);
  const Index v = 12, d = 3, n = 4;
  SampledSoftmaxLoss sampled(v, d, rng);
  Tensor h = Tensor::randn({n, d}, rng, 0.6f);
  std::vector<Index> targets = {2, 5, 7, 2};
  std::vector<Index> candidates = {1, 2, 5, 7, 9};

  // Reference loss recomputed through the same sampled path.
  auto loss_fn = [&] {
    Tensor dh_tmp;
    SparseRowGrad g_tmp;
    return static_cast<double>(
        sampled.forward_backward(h, targets, candidates, dh_tmp, g_tmp));
  };

  Tensor dh;
  SparseRowGrad grad;
  sampled.forward_backward(h, targets, candidates, dh, grad);

  EXPECT_TRUE(grad_check(h, dh, loss_fn, 3e-3).passed(3e-2));

  // Candidate-row gradients: perturb one embedding row element.
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    for (Index j = 0; j < d; ++j) {
      float& w = sampled.embedding().value(candidates[ci], j);
      const float orig = w;
      const double eps = 1e-3;
      w = orig + static_cast<float>(eps);
      const double up = loss_fn();
      w = orig - static_cast<float>(eps);
      const double down = loss_fn();
      w = orig;
      const double numeric = (up - down) / (2 * eps);
      EXPECT_NEAR(grad.rows(static_cast<Index>(ci), j), numeric, 5e-3)
          << "candidate " << ci << " dim " << j;
    }
    // Bias gradient.
    float& b = sampled.bias().value(candidates[ci]);
    const float orig = b;
    b = orig + 1e-3f;
    const double up = loss_fn();
    b = orig - 1e-3f;
    const double down = loss_fn();
    b = orig;
    EXPECT_NEAR(grad.bias_rows(static_cast<Index>(ci)),
                (up - down) / 2e-3, 5e-3);
  }
}

TEST(SampledSoftmaxLoss, ConstantLogQCorrectionIsANoOp) {
  // Softmax is shift-invariant per row: subtracting the same log q from
  // every candidate changes nothing.
  Rng rng(8);
  const Index v = 10, d = 4, n = 3;
  SampledSoftmaxLoss sampled(v, d, rng);
  Tensor h = Tensor::randn({n, d}, rng);
  std::vector<Index> targets = {0, 4, 9};
  std::vector<Index> candidates = {0, 2, 4, 9};
  std::vector<float> logq(candidates.size(), 1.7f);

  Tensor dh_a, dh_b;
  SparseRowGrad ga, gb;
  const float a = sampled.forward_backward(h, targets, candidates, dh_a, ga);
  const float b =
      sampled.forward_backward(h, targets, candidates, dh_b, gb, logq);
  EXPECT_NEAR(a, b, 1e-5f);
  for (Index i = 0; i < dh_a.size(); ++i) {
    EXPECT_NEAR(dh_a.data()[static_cast<std::size_t>(i)],
                dh_b.data()[static_cast<std::size_t>(i)], 1e-5f);
  }
}

TEST(SampledSoftmaxLoss, NonUniformLogQChangesTheLoss) {
  Rng rng(9);
  const Index v = 10, d = 4, n = 3;
  SampledSoftmaxLoss sampled(v, d, rng);
  Tensor h = Tensor::randn({n, d}, rng);
  std::vector<Index> targets = {0, 4, 9};
  std::vector<Index> candidates = {0, 2, 4, 9};
  // Frequent candidate 0 heavily oversampled -> large log q -> its logit
  // is pushed down, raising p(target=0)'s competitors... the loss must
  // differ from the uncorrected one.
  std::vector<float> logq = {2.0f, -1.0f, 0.0f, -2.0f};
  Tensor dh_a, dh_b;
  SparseRowGrad ga, gb;
  const float a = sampled.forward_backward(h, targets, candidates, dh_a, ga);
  const float b =
      sampled.forward_backward(h, targets, candidates, dh_b, gb, logq);
  EXPECT_NE(a, b);
}

TEST(SampledSoftmaxLoss, RejectsMismatchedLogQ) {
  Rng rng(10);
  SampledSoftmaxLoss sampled(10, 2, rng);
  Tensor h({1, 2});
  std::vector<Index> targets = {1};
  std::vector<Index> candidates = {1, 2};
  std::vector<float> logq = {0.0f};  // wrong length
  Tensor dh;
  SparseRowGrad grad;
  EXPECT_THROW(
      sampled.forward_backward(h, targets, candidates, dh, grad, logq),
      ConfigError);
}

TEST(SampledSoftmaxLoss, RejectsTargetOutsideCandidates) {
  Rng rng(5);
  SampledSoftmaxLoss sampled(10, 2, rng);
  Tensor h({1, 2});
  std::vector<Index> targets = {7};
  std::vector<Index> candidates = {1, 2, 3};
  Tensor dh;
  SparseRowGrad grad;
  EXPECT_THROW(sampled.forward_backward(h, targets, candidates, dh, grad),
               ConfigError);
}

TEST(SampledSoftmaxLoss, RejectsDuplicateCandidates) {
  Rng rng(6);
  SampledSoftmaxLoss sampled(10, 2, rng);
  Tensor h({1, 2});
  std::vector<Index> targets = {1};
  std::vector<Index> candidates = {1, 2, 2};
  Tensor dh;
  SparseRowGrad grad;
  EXPECT_THROW(sampled.forward_backward(h, targets, candidates, dh, grad),
               ConfigError);
}

TEST(SampledSoftmaxLoss, SmallerCandidateSetUnderestimatesLoss) {
  // Sampled softmax normalizes over fewer words, so training loss is an
  // underestimate of the full loss — the reason eval uses full_loss.
  Rng rng(7);
  const Index v = 64, d = 8, n = 10;
  SampledSoftmaxLoss sampled(v, d, rng);
  Tensor h = Tensor::randn({n, d}, rng);
  std::vector<Index> targets(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) targets[static_cast<std::size_t>(i)] = i;

  std::vector<Index> small;
  for (Index i = 0; i < 16; ++i) small.push_back(i);
  Tensor dh;
  SparseRowGrad grad;
  const float sampled_loss =
      sampled.forward_backward(h, targets, small, dh, grad);
  const float full = sampled.full_loss(h, targets);
  EXPECT_LT(sampled_loss, full + 1e-4f);
}

}  // namespace
}  // namespace zipflm
