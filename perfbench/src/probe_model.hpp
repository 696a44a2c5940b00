// ProbeModel: a pass-through LmModel that records what its calls did.
//
// Training records every train_step_local (start, duration, loss): the
// output checks and the step-latency metrics come from it.  Serving
// records each batched step() (duration, width) while recording is on.
// The trainer's backward hook is forwarded, so the overlapped exchange
// fires exactly as it would on the bare model.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <span>
#include <vector>

#include "common.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/obs/trace.hpp"

namespace perfbench {

/// One local training step.
struct TrainStepRecord {
  double start = 0.0;    ///< now_seconds() at train_step_local entry
  double seconds = 0.0;  ///< forward + backward wall time
  float loss = 0.0f;
};

/// One batched inference step.
struct ServeStepRecord {
  double seconds = 0.0;
  std::size_t width = 0;  ///< streams advanced together
};

class ProbeModel final : public zipflm::LmModel {
 public:
  explicit ProbeModel(std::unique_ptr<zipflm::LmModel> inner)
      : inner_(std::move(inner)) {
    inner_->set_backward_hook(
        [this](const zipflm::Param& p) { notify_param_ready(p); });
  }
  ProbeModel(const ProbeModel&) = delete;
  ProbeModel& operator=(const ProbeModel&) = delete;
  ProbeModel(ProbeModel&&) = delete;
  ProbeModel& operator=(ProbeModel&&) = delete;
  ~ProbeModel() override = default;

  void train_step_local(const zipflm::Batch& batch,
                        std::span<const zipflm::Index> candidates,
                        zipflm::LmStepResult& out) override {
    zipflm::obs::SpanScope span("nn.train_step_local", "step",
                                static_cast<double>(train_steps_.size()));
    TrainStepRecord rec;
    rec.start = now_seconds();
    inner_->train_step_local(batch, candidates, out);
    rec.seconds = now_seconds() - rec.start;
    rec.loss = out.loss;
    train_steps_.push_back(rec);
  }

  void step(std::span<const zipflm::Index> tokens,
            zipflm::RecurrentState& state, zipflm::Tensor& logits) override {
    zipflm::obs::SpanScope span("nn.serve_step", "step",
                                static_cast<double>(serve_step_count_++),
                                "width", static_cast<double>(tokens.size()));
    if (!recording_.load(std::memory_order_relaxed)) {
      inner_->step(tokens, state, logits);
      return;
    }
    const double start = now_seconds();
    inner_->step(tokens, state, logits);
    const ServeStepRecord rec{now_seconds() - start, tokens.size()};
    std::lock_guard lock(mutex_);
    serve_steps_.push_back(rec);
  }

  float eval_loss(const zipflm::Batch& batch) override {
    return inner_->eval_loss(batch);
  }
  zipflm::Tensor next_token_logits(
      std::span<const zipflm::Index> context) override {
    return inner_->next_token_logits(context);
  }
  zipflm::RecurrentState initial_state(zipflm::Index batch) const override {
    return inner_->initial_state(batch);
  }
  std::vector<zipflm::Param*> dense_params() override {
    return inner_->dense_params();
  }
  zipflm::ShardedEmbedding* sharded_input() override {
    return inner_->sharded_input();
  }
  std::vector<zipflm::Param*> all_params() override {
    return inner_->all_params();
  }
  zipflm::Param& input_embedding_param() override {
    return inner_->input_embedding_param();
  }
  zipflm::Param* sampled_output_param() override {
    return inner_->sampled_output_param();
  }
  zipflm::Index vocab() const override { return inner_->vocab(); }
  zipflm::Index embed_dim() const override { return inner_->embed_dim(); }
  double flops_per_token() const override { return inner_->flops_per_token(); }
  std::size_t activation_bytes_per_token() const override {
    return inner_->activation_bytes_per_token();
  }
  void zero_grad() override { inner_->zero_grad(); }
  zipflm::Rng& dropout_rng() override { return inner_->dropout_rng(); }

  /// Every training step since construction.  Read only between
  /// run_epoch calls (CommWorld::run joins the rank threads that append).
  const std::vector<TrainStepRecord>& train_steps() const noexcept {
    return train_steps_;
  }

  /// Serve steps are recorded only between these two calls.
  void start_recording() { recording_.store(true, std::memory_order_relaxed); }
  std::vector<ServeStepRecord> stop_recording() {
    recording_.store(false, std::memory_order_relaxed);
    std::lock_guard lock(mutex_);
    return std::exchange(serve_steps_, {});
  }

 private:
  std::unique_ptr<zipflm::LmModel> inner_;
  std::vector<TrainStepRecord> train_steps_;
  std::uint64_t serve_step_count_ = 0;  ///< touched by one scheduler thread
  std::atomic<bool> recording_{false};
  std::mutex mutex_;  ///< guards serve_steps_ (scheduler thread vs reader)
  std::vector<ServeStepRecord> serve_steps_;
};

}  // namespace perfbench
