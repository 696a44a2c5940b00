#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "zipflm/nn/optimizer.hpp"

namespace zipflm {
namespace {

Param make_param(std::initializer_list<float> values) {
  Tensor t({static_cast<Index>(values.size())});
  Index i = 0;
  for (float v : values) t(i++) = v;
  return Param("p", std::move(t));
}

TEST(Sgd, DenseStepDescends) {
  Param p = make_param({1.0f, -2.0f});
  p.grad(0) = 0.5f;
  p.grad(1) = -0.5f;
  Sgd sgd(0.1f);
  Param* ps[] = {&p};
  sgd.step(ps);
  EXPECT_NEAR(p.value(0), 0.95f, 1e-6f);
  EXPECT_NEAR(p.value(1), -1.95f, 1e-6f);
}

TEST(Sgd, ClipLimitsGradient) {
  Param p = make_param({0.0f});
  p.grad(0) = 100.0f;
  Sgd sgd(1.0f, /*clip=*/1.0f);
  Param* ps[] = {&p};
  sgd.step(ps);
  EXPECT_NEAR(p.value(0), -1.0f, 1e-6f);
}

TEST(Sgd, WeightDecayShrinks) {
  Param p = make_param({2.0f});
  Sgd sgd(0.5f, 0.0f, /*weight_decay=*/0.1f);
  Param* ps[] = {&p};
  sgd.step(ps);  // grad 0: update = -lr * wd * w = -0.1
  EXPECT_NEAR(p.value(0), 1.9f, 1e-6f);
}

TEST(Optimizer, DenseStepRejectsRowSparseTable) {
  // A row-sparse table has no dense gradient: only step_rows may touch
  // it, so a dense step must refuse rather than read past an empty grad.
  Param table = Param::row_sparse("table", Tensor({3, 2}));
  Param* ps[] = {&table};
  Sgd sgd(0.1f);
  EXPECT_THROW(sgd.step(ps), ConfigError);
  Adam adam(Adam::Config{});
  EXPECT_THROW(adam.step(ps), ConfigError);
}

TEST(Sgd, RowStepTouchesOnlyGivenRows) {
  Param table("t", Tensor::full({4, 2}, 1.0f));
  Tensor rows({2, 2});
  rows.fill(1.0f);
  const std::vector<Index> ids = {1, 3};
  Sgd sgd(0.5f);
  sgd.step_rows(table, rows, ids);
  EXPECT_EQ(table.value(0, 0), 1.0f);
  EXPECT_EQ(table.value(1, 0), 0.5f);
  EXPECT_EQ(table.value(2, 0), 1.0f);
  EXPECT_EQ(table.value(3, 1), 0.5f);
}

TEST(Sgd, RowStepEquivalentToDenseWithScatteredGrad) {
  Rng rng(3);
  Param dense("d", Tensor::randn({6, 3}, rng));
  Param sparse("s", dense.value);
  Tensor rows = Tensor::randn({2, 3}, rng);
  const std::vector<Index> ids = {4, 0};
  // Dense path: scatter rows into grad then step.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (Index j = 0; j < 3; ++j) {
      dense.grad(ids[i], j) = rows(static_cast<Index>(i), j);
    }
  }
  Sgd sgd(0.2f);
  Param* dp[] = {&dense};
  sgd.step(dp);
  sgd.step_rows(sparse, rows, ids);
  EXPECT_TRUE(dense.value == sparse.value);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize f(w) = 0.5*(w-3)^2; grad = w-3.
  Param p = make_param({0.0f});
  Adam::Config cfg;
  cfg.lr = 0.1f;
  Adam adam(cfg);
  Param* ps[] = {&p};
  for (int i = 0; i < 500; ++i) {
    adam.begin_step();
    p.grad(0) = p.value(0) - 3.0f;
    adam.step(ps);
  }
  EXPECT_NEAR(p.value(0), 3.0f, 0.05f);
}

TEST(Adam, RowStepMatchesDenseWhenGradIsSparse) {
  Rng rng(9);
  Param dense("d", Tensor::randn({5, 2}, rng));
  Param sparse("s", dense.value);
  Adam::Config cfg;
  Adam adam_dense(cfg), adam_sparse(cfg);

  // Rows must be touched on EVERY step for dense/sparse agreement:
  // dense Adam decays the moments of untouched rows each step while
  // sparse Adam freezes them.
  const std::vector<Index> ids = {1, 3};
  for (int step = 0; step < 5; ++step) {
    Tensor rows = Tensor::randn({2, 2}, rng);
    dense.zero_grad();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (Index j = 0; j < 2; ++j) {
        dense.grad(ids[i], j) += rows(static_cast<Index>(i), j);
      }
    }
    adam_dense.begin_step();
    Param* dp[] = {&dense};
    adam_dense.step(dp);

    adam_sparse.begin_step();
    adam_sparse.step_rows(sparse, rows, ids);

    // Rows touched this step must match exactly.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (Index j = 0; j < 2; ++j) {
        EXPECT_NEAR(dense.value(ids[i], j), sparse.value(ids[i], j), 1e-6f)
            << "step " << step;
      }
    }
  }
}

TEST(Adam, BiasCorrectionMakesFirstStepLrSized) {
  Param p = make_param({0.0f});
  Adam::Config cfg;
  cfg.lr = 0.01f;
  Adam adam(cfg);
  adam.begin_step();
  p.grad(0) = 123.0f;  // any gradient: first step is ~lr in magnitude
  Param* ps[] = {&p};
  adam.step(ps);
  EXPECT_NEAR(p.value(0), -0.01f, 1e-4f);
}

TEST(Optimizer, RangeStepsTileToTheWholeStepBitwise) {
  // Three "ranks" each step one range of the same parameter, the way the
  // owner-side update steps ring chunks; stitched together they are the
  // whole-parameter step bit for bit, and each Adam holds moments for
  // its range only.
  const Index n = 37;
  const std::size_t cuts[] = {0, 13, 25, 37};
  const auto fill = [n](Param& p) {
    for (Index i = 0; i < n; ++i) {
      p.value(i) = 0.1f * static_cast<float>(i % 7) - 0.3f;
    }
  };
  for (const bool adam : {true, false}) {
    Adam::Config cfg;
    cfg.lr = 0.01f;
    cfg.clip = 0.5f;
    const auto make = [&]() -> std::unique_ptr<Optimizer> {
      if (adam) return std::make_unique<Adam>(cfg);
      return std::make_unique<Sgd>(0.1f, 0.5f);
    };
    Param whole("w", Tensor({n}));
    fill(whole);
    auto whole_opt = make();
    std::vector<std::unique_ptr<Optimizer>> owners;
    std::vector<Param> parts;
    for (int r = 0; r < 3; ++r) {
      owners.push_back(make());
      parts.emplace_back("w", Tensor({n}));
      fill(parts.back());
    }
    for (int step = 0; step < 3; ++step) {
      for (Index i = 0; i < n; ++i) {
        whole.grad(i) = std::sin(static_cast<float>(i * (step + 3)));
      }
      if (adam) static_cast<Adam&>(*whole_opt).begin_step();
      Param* ps[] = {&whole};
      whole_opt->step(ps);
      for (int r = 0; r < 3; ++r) {
        Param& p = parts[static_cast<std::size_t>(r)];
        for (Index i = 0; i < n; ++i) p.grad(i) = whole.grad(i);
        Optimizer& opt = *owners[static_cast<std::size_t>(r)];
        if (adam) static_cast<Adam&>(opt).begin_step();
        const ParamRange range{&p, cuts[r], cuts[r + 1]};
        opt.step(std::span<const ParamRange>(&range, 1));
      }
    }
    for (int r = 0; r < 3; ++r) {
      const Param& p = parts[static_cast<std::size_t>(r)];
      const std::size_t len = cuts[r + 1] - cuts[r];
      EXPECT_EQ(std::memcmp(p.value.data().data() + cuts[r],
                            whole.value.data().data() + cuts[r],
                            len * sizeof(float)),
                0)
          << (adam ? "adam" : "sgd") << " range " << r;
      if (adam) {
        const auto& opt =
            static_cast<const Adam&>(*owners[static_cast<std::size_t>(r)]);
        EXPECT_EQ(opt.state_bytes(), 8 * len);
        EXPECT_EQ(opt.moment_begin(p), cuts[r]);
      }
    }
  }
}

TEST(Adam, RefusesARangeItsMomentsDoNotCover) {
  Param p("w", Tensor({8}));
  Adam adam(Adam::Config{});
  adam.begin_step();
  const ParamRange first{&p, 0, 4};
  adam.step(std::span<const ParamRange>(&first, 1));
  const ParamRange moved{&p, 2, 6};
  EXPECT_THROW(adam.step(std::span<const ParamRange>(&moved, 1)), Error);
  // A slice is not a whole-parameter checkpoint.
  std::ostringstream out;
  Param* ps[] = {&p};
  EXPECT_THROW(adam.save_state(out, ps), Error);
}

TEST(LearningRateSchedule, MatchesPaperFormula) {
  // base 0.2, 8 nodes (64 GPUs): 0.2 * ln(8) = 0.416.
  EXPECT_NEAR(scaled_learning_rate(0.2f, 8), 0.2f * std::log(8.0f), 1e-6f);
  // One node: no scaling.
  EXPECT_NEAR(scaled_learning_rate(0.2f, 1), 0.2f, 1e-6f);
  // Decay: epoch 2 at 0.9.
  EXPECT_NEAR(scaled_learning_rate(0.2f, 1, 2, 0.9f), 0.2f * 0.81f, 1e-6f);
}

}  // namespace
}  // namespace zipflm
