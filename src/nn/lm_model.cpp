#include "zipflm/nn/lm_model.hpp"

#include <algorithm>

#include "zipflm/support/phase_scope.hpp"
#include "zipflm/tensor/ops.hpp"

namespace zipflm {

namespace {

/// Slice a flat batch-major [B*T x D] block into T time-major [B x D]
/// step tensors.
void to_time_major(const Tensor& flat, Index batch, Index steps,
                   std::vector<Tensor>& out) {
  const Index d = flat.cols();
  out.assign(static_cast<std::size_t>(steps), Tensor());
  for (Index t = 0; t < steps; ++t) {
    Tensor& x = out[static_cast<std::size_t>(t)];
    x = Tensor({batch, d});
    for (Index b = 0; b < batch; ++b) {
      const auto src = flat.row(b * steps + t);
      auto dst = x.row(b);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
}

/// Inverse of to_time_major.
void to_batch_major(const std::vector<Tensor>& steps_data, Index batch,
                    Index steps, Tensor& flat) {
  const Index d = steps_data.front().cols();
  flat = Tensor({batch * steps, d});
  for (Index t = 0; t < steps; ++t) {
    const Tensor& x = steps_data[static_cast<std::size_t>(t)];
    for (Index b = 0; b < batch; ++b) {
      const auto src = x.row(b);
      auto dst = flat.row(b * steps + t);
      std::copy(src.begin(), src.end(), dst.begin());
    }
  }
}

}  // namespace

void copy_state_row(const RecurrentState& src, Index src_row,
                    RecurrentState& dst, Index dst_row) {
  ZIPFLM_CHECK(src.slots.size() == dst.slots.size(),
               "recurrent-state slot counts must match");
  for (std::size_t s = 0; s < src.slots.size(); ++s) {
    const Tensor& from = src.slots[s];
    Tensor& to = dst.slots[s];
    ZIPFLM_CHECK(from.cols() == to.cols(),
                 "recurrent-state slot widths must match");
    const auto src_span = from.row(src_row);
    auto dst_span = to.row(dst_row);
    std::copy(src_span.begin(), src_span.end(), dst_span.begin());
  }
}

// ---------------------------------------------------------------------------
// WordLm
// ---------------------------------------------------------------------------

WordLm::WordLm(const WordLmConfig& config)
    : config_(config),
      input_([&] {
        Rng rng = Rng::fork(config.seed, 1);
        return Embedding(config.vocab, config.embed_dim, rng);
      }()),
      loss_([&] {
        Rng rng = Rng::fork(config.seed, 3);
        return SampledSoftmaxLoss(
            config.vocab,
            config.proj_dim > 0 ? config.proj_dim : config.hidden_dim, rng);
      }()),
      dropout_rng_(Rng::fork(config.seed, 0xD20)) {
  ZIPFLM_CHECK(config.num_layers >= 1, "need at least one LSTM layer");
  layers_.reserve(static_cast<std::size_t>(config.num_layers));
  for (Index l = 0; l < config.num_layers; ++l) {
    Rng rng = Rng::fork(config.seed, 2 + static_cast<std::uint64_t>(l));
    const Index in_dim =
        l == 0 ? config.embed_dim
               : (config.proj_dim > 0 ? config.proj_dim : config.hidden_dim);
    layers_.emplace_back(
        LstmConfig{in_dim, config.hidden_dim, config.proj_dim}, rng);
  }
  // One dropout per layer boundary: embedding -> L0, L0 -> L1, ...,
  // L(n-1) -> softmax.
  for (Index l = 0; l <= config.num_layers; ++l) {
    dropouts_.emplace_back(config.dropout);
  }
}

void WordLm::run_forward(const Batch& batch, Tensor& h_all, bool train) {
  const Index b = batch.batch_size;
  const Index t = batch.seq_len;
  Tensor flat({b * t, config_.embed_dim});
  input_.forward(batch.inputs, flat);
  if (train) dropouts_.front().forward_train(flat, dropout_rng_);
  std::vector<Tensor> xs, ys;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    to_time_major(flat, b, t, xs);
    layers_[l].forward(xs, ys);
    to_batch_major(ys, b, t, flat);
    if (train) dropouts_[l + 1].forward_train(flat, dropout_rng_);
  }
  h_all = std::move(flat);
}

void WordLm::train_step_local(const Batch& batch,
                              std::span<const Index> candidates,
                              LmStepResult& out) {
  const Index b = batch.batch_size;
  const Index t = batch.seq_len;

  out.input_ids = batch.inputs;
  Tensor h_all;
  {
    PhaseScope phase("forward");
    run_forward(batch, h_all, /*train=*/true);
  }

  // Loss forward+backward and the layer backwards all count as the
  // "backward" phase: the sampled softmax fuses its forward with the
  // gradient computation, so the split cannot be finer.
  PhaseScope phase("backward");
  Tensor dflat;
  out.loss = loss_.forward_backward(h_all, batch.targets, candidates, dflat,
                                    out.output_grad);

  // The candidate-bias gradient rides the dense ALLREDUCE path (it is
  // |V| floats, negligible next to the embedding rows): scatter it into
  // the bias parameter's dense gradient.
  for (std::size_t i = 0; i < out.output_grad.ids.size(); ++i) {
    loss_.bias().grad(out.output_grad.ids[i]) +=
        out.output_grad.bias_rows(static_cast<Index>(i));
  }
  notify_param_ready(loss_.bias());

  std::vector<Tensor> douts, dxs;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    dropouts_[l + 1].backward(dflat);
    to_time_major(dflat, b, t, douts);
    layers_[l].backward(douts, dxs);
    // An LSTM layer's parameter gradients are final once its BPTT sweep
    // returns; notify in reverse declaration order to match the
    // reverse-backprop bucket plan.
    auto lps = layers_[l].params();
    for (std::size_t i = lps.size(); i-- > 0;) notify_param_ready(*lps[i]);
    to_batch_major(dxs, b, t, dflat);
  }
  dropouts_.front().backward(dflat);
  out.input_delta = std::move(dflat);
}

float WordLm::eval_loss(const Batch& batch) {
  Tensor h_all;
  run_forward(batch, h_all, /*train=*/false);
  return loss_.full_loss(h_all, batch.targets);
}

Tensor WordLm::next_token_logits(std::span<const Index> context) {
  ZIPFLM_CHECK(!context.empty(), "context must be non-empty");
  const Index t = static_cast<Index>(context.size());
  Batch pseudo;
  pseudo.batch_size = 1;
  pseudo.seq_len = t;
  pseudo.inputs.assign(context.begin(), context.end());
  Tensor h_all;
  run_forward(pseudo, h_all, /*train=*/false);
  // Last row = hidden state after the full context.
  Tensor last({1, h_all.cols()});
  const auto src = h_all.row(t - 1);
  std::copy(src.begin(), src.end(), last.row(0).begin());
  Tensor logits;
  loss_.full_logits(last, logits);
  logits.reshape({logits.cols()});
  return logits;
}

RecurrentState WordLm::initial_state(Index batch) const {
  ZIPFLM_CHECK(batch > 0, "state batch must be positive");
  const Index p = config_.proj_dim > 0 ? config_.proj_dim : config_.hidden_dim;
  RecurrentState state;
  state.slots.reserve(2 * layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    state.slots.emplace_back(Tensor({batch, config_.hidden_dim}));  // cell
    state.slots.emplace_back(Tensor({batch, p}));                   // output
  }
  return state;
}

void WordLm::step(std::span<const Index> tokens, RecurrentState& state,
                  Tensor& logits) {
  const Index b = static_cast<Index>(tokens.size());
  ZIPFLM_CHECK(b > 0, "step needs at least one stream");
  ZIPFLM_CHECK(state.slots.size() == 2 * layers_.size() && state.batch() == b,
               "recurrent state does not match this model/batch");
  Tensor x({b, config_.embed_dim});
  input_.forward(tokens, x);
  const Tensor* in = &x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Tensor& c = state.slots[2 * l];
    Tensor& r = state.slots[2 * l + 1];
    layers_[l].step(*in, c, r);
    in = &r;
  }
  loss_.full_logits(*in, logits);
}

std::vector<Param*> WordLm::dense_params() {
  // Embedding tables are synchronized sparsely; the softmax bias rides
  // along densely (|V| floats, negligible next to the K x D tables).
  std::vector<Param*> ps;
  for (auto& layer : layers_) {
    for (Param* p : layer.params()) ps.push_back(p);
  }
  ps.push_back(&loss_.bias());
  return ps;
}

std::vector<Param*> WordLm::all_params() {
  auto ps = dense_params();
  ps.push_back(&input_.param());
  ps.push_back(&loss_.embedding());
  return ps;
}

double WordLm::flops_per_token() const {
  // RNN stack plus a sampled softmax of ~1024 candidates (paper setting).
  const double p =
      static_cast<double>(config_.proj_dim > 0 ? config_.proj_dim
                                               : config_.hidden_dim);
  double rnn = 0.0;
  for (const auto& layer : layers_) rnn += layer.flops_per_token();
  return rnn + 2.0 * p * 1024.0 * 3.0;
}

std::size_t WordLm::activation_bytes_per_token() const {
  // Embedded input, fused LSTM gates, cell/hidden, projection output —
  // forward caches kept for BPTT, per layer.
  const std::size_t e = static_cast<std::size_t>(config_.embed_dim);
  const std::size_t h = static_cast<std::size_t>(config_.hidden_dim);
  const std::size_t p = static_cast<std::size_t>(
      config_.proj_dim > 0 ? config_.proj_dim : config_.hidden_dim);
  return (e + static_cast<std::size_t>(config_.num_layers) *
                  (4 * h + 3 * h + 2 * p)) *
         sizeof(float);
}

void WordLm::zero_grad() {
  // The tables are row-sparse: they hold no dense gradient to clear.
  for (Param* p : dense_params()) p->zero_grad();
}

// ---------------------------------------------------------------------------
// CharLm
// ---------------------------------------------------------------------------

CharLm::CharLm(const CharLmConfig& config)
    : config_(config),
      input_([&]() -> std::unique_ptr<Embedding> {
        if (config.shard_world >= 1) return nullptr;
        Rng rng = Rng::fork(config.seed, 11);
        return std::make_unique<Embedding>(config.vocab, config.embed_dim,
                                           rng);
      }()),
      sharded_input_([&]() -> std::unique_ptr<ShardedEmbedding> {
        if (config.shard_world < 1) return nullptr;
        // Same fork as the replicated table: the shard is a bitwise
        // slice of the init the replicated model would draw.
        Rng rng = Rng::fork(config.seed, 11);
        return std::make_unique<ShardedEmbedding>(config.vocab,
                                                  config.embed_dim,
                                                  config.shard_rank,
                                                  config.shard_world, rng);
      }()),
      rhn_([&] {
        Rng rng = Rng::fork(config.seed, 12);
        return RhnLayer(RhnConfig{config.embed_dim, config.hidden_dim,
                                  config.depth},
                        rng);
      }()),
      loss_([&] {
        Rng rng = Rng::fork(config.seed, 13);
        return FullSoftmaxLoss(config.vocab, config.hidden_dim, rng);
      }()),
      embed_dropout_(config.dropout),
      output_dropout_(config.dropout),
      dropout_rng_(Rng::fork(config.seed, 0xD21)) {
  // Relay the RHN's per-parameter backward-completion events to the
  // model-level hook (the overlap trigger for bucketed grad exchange).
  rhn_.set_param_ready_hook(
      [this](const Param& p) { notify_param_ready(p); });
}

void CharLm::train_step_local(const Batch& batch,
                              std::span<const Index> /*candidates*/,
                              LmStepResult& out) {
  const Index b = batch.batch_size;
  const Index t = batch.seq_len;
  const Index k = b * t;

  out.input_ids = batch.inputs;
  out.output_grad.ids.clear();

  Tensor h_all;
  {
    PhaseScope phase("forward");
    Tensor flat_emb({k, config_.embed_dim});
    embed_tokens(batch.inputs, flat_emb);
    embed_dropout_.forward_train(flat_emb, dropout_rng_);
    std::vector<Tensor> xs;
    to_time_major(flat_emb, b, t, xs);
    std::vector<Tensor> ys;
    rhn_.forward(xs, ys);
    to_batch_major(ys, b, t, h_all);
    output_dropout_.forward_train(h_all, dropout_rng_);
  }

  // The full-softmax loss fuses forward and gradient; it is attributed
  // to "backward" together with the RHN BPTT sweep.
  PhaseScope phase("backward");
  Tensor dh_all;
  out.loss = loss_.forward_backward(h_all, batch.targets, dh_all);
  // The dense softmax parameters accumulate only inside forward_backward
  // — their gradients are final before the RHN sweep even starts.
  notify_param_ready(loss_.bias());
  notify_param_ready(loss_.embedding());
  output_dropout_.backward(dh_all);

  std::vector<Tensor> douts;
  to_time_major(dh_all, b, t, douts);
  std::vector<Tensor> dxs;
  rhn_.backward(douts, dxs);
  to_batch_major(dxs, b, t, out.input_delta);
  embed_dropout_.backward(out.input_delta);
}

float CharLm::eval_loss(const Batch& batch) {
  const Index b = batch.batch_size;
  const Index t = batch.seq_len;
  Tensor flat_emb({b * t, config_.embed_dim});
  embed_tokens(batch.inputs, flat_emb);
  std::vector<Tensor> xs;
  to_time_major(flat_emb, b, t, xs);
  std::vector<Tensor> ys;
  rhn_.forward(xs, ys);
  Tensor h_all;
  to_batch_major(ys, b, t, h_all);
  return loss_.loss(h_all, batch.targets);
}

Tensor CharLm::next_token_logits(std::span<const Index> context) {
  ZIPFLM_CHECK(!context.empty(), "context must be non-empty");
  const Index t = static_cast<Index>(context.size());
  Tensor flat_emb({t, config_.embed_dim});
  embed_tokens(context, flat_emb);
  std::vector<Tensor> xs;
  to_time_major(flat_emb, 1, t, xs);
  std::vector<Tensor> ys;
  rhn_.forward(xs, ys);
  Tensor logits;
  loss_.full_logits(ys.back(), logits);
  logits.reshape({logits.cols()});
  return logits;
}

RecurrentState CharLm::initial_state(Index batch) const {
  ZIPFLM_CHECK(batch > 0, "state batch must be positive");
  RecurrentState state;
  state.slots.emplace_back(Tensor({batch, config_.hidden_dim}));
  return state;
}

void CharLm::step(std::span<const Index> tokens, RecurrentState& state,
                  Tensor& logits) {
  const Index b = static_cast<Index>(tokens.size());
  ZIPFLM_CHECK(b > 0, "step needs at least one stream");
  ZIPFLM_CHECK(state.slots.size() == 1 && state.batch() == b,
               "recurrent state does not match this model/batch");
  Tensor x({b, config_.embed_dim});
  embed_tokens(tokens, x);
  rhn_.step(x, state.slots.front());
  loss_.full_logits(state.slots.front(), logits);
}

std::vector<Param*> CharLm::dense_params() {
  auto ps = rhn_.params();
  ps.push_back(&loss_.embedding());
  ps.push_back(&loss_.bias());
  return ps;
}

std::vector<Param*> CharLm::all_params() {
  auto ps = dense_params();
  ps.push_back(&input_embedding_param());
  return ps;
}

void CharLm::embed_tokens(std::span<const Index> ids, Tensor& out) const {
  if (sharded_input_ != nullptr) {
    // Incremental decode (next_token_logits / step) would need a pull
    // per token; serving runs on replicated tables.  The trainer's
    // pull exchange installs the cache this forward reads.
    ZIPFLM_CHECK(sharded_input_->cache_ready(),
                 "sharded embedding forward without a pulled row cache "
                 "(training pull not run, or incremental decode on a "
                 "sharded model)");
    sharded_input_->forward(ids, out);
  } else {
    input_->forward(ids, out);
  }
}

double CharLm::flops_per_token() const {
  const double h = static_cast<double>(config_.hidden_dim);
  const double v = static_cast<double>(config_.vocab);
  return rhn_.flops_per_token() + 2.0 * h * v * 3.0;
}

std::size_t CharLm::activation_bytes_per_token() const {
  const std::size_t e = static_cast<std::size_t>(config_.embed_dim);
  const std::size_t h = static_cast<std::size_t>(config_.hidden_dim);
  const std::size_t depth = static_cast<std::size_t>(config_.depth);
  const std::size_t v = static_cast<std::size_t>(config_.vocab);
  return (e + depth * 3 * h + v) * sizeof(float);
}

void CharLm::zero_grad() {
  // The tables are row-sparse: they hold no dense gradient to clear.
  for (Param* p : dense_params()) p->zero_grad();
}

}  // namespace zipflm
