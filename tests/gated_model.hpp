// GatedModel: the serve suites' LmModel wrapper for deterministic
// request timing.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "zipflm/nn/lm_model.hpp"

namespace zipflm {

/// Serves through `inner`, but holds every step() until release() — the
/// test, not the host's speed, decides when a request may finish.
class GatedModel final : public LmModel {
 public:
  explicit GatedModel(std::unique_ptr<LmModel> inner)
      : inner_(std::move(inner)) {}

  /// Block until the scheduler thread is parked inside a step().
  void wait_entered() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void release() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void step(std::span<const Index> tokens, RecurrentState& state,
            Tensor& logits) override {
    {
      std::unique_lock lock(mutex_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    inner_->step(tokens, state, logits);
  }

  void train_step_local(const Batch& batch, std::span<const Index> candidates,
                        LmStepResult& out) override {
    inner_->train_step_local(batch, candidates, out);
  }
  float eval_loss(const Batch& batch) override {
    return inner_->eval_loss(batch);
  }
  Tensor next_token_logits(std::span<const Index> context) override {
    return inner_->next_token_logits(context);
  }
  RecurrentState initial_state(Index batch) const override {
    return inner_->initial_state(batch);
  }
  std::vector<Param*> dense_params() override {
    return inner_->dense_params();
  }
  std::vector<Param*> all_params() override { return inner_->all_params(); }
  Param& input_embedding_param() override {
    return inner_->input_embedding_param();
  }
  Param* sampled_output_param() override {
    return inner_->sampled_output_param();
  }
  Index vocab() const override { return inner_->vocab(); }
  Index embed_dim() const override { return inner_->embed_dim(); }
  double flops_per_token() const override {
    return inner_->flops_per_token();
  }
  std::size_t activation_bytes_per_token() const override {
    return inner_->activation_bytes_per_token();
  }
  void zero_grad() override { inner_->zero_grad(); }
  Rng& dropout_rng() override { return inner_->dropout_rng(); }

 private:
  std::unique_ptr<LmModel> inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

}  // namespace zipflm
