// End-to-end language models composing the nn substrate, mirroring the
// paper's two test-cases (Section IV-B):
//
//  * WordLm — input embedding -> LSTM(2048, proj 512) -> sampled softmax.
//    Both embedding gradients are row-sparse; they are what the paper's
//    uniqueness + seeding techniques synchronize.
//  * CharLm — input embedding -> RHN(depth 10) -> full softmax.  Only the
//    input embedding gradient is sparse; the output embedding is dense.
//
// A model's train_step_local() runs forward+backward on one rank's local
// batch and reports the sparse embedding gradients *without applying
// them* — applying them is the distributed exchange's job (zipflm::core).
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <numbers>
#include <span>
#include <vector>

#include "zipflm/data/batch.hpp"
#include "zipflm/nn/dropout.hpp"
#include "zipflm/nn/embedding.hpp"
#include "zipflm/nn/lstm.hpp"
#include "zipflm/nn/rhn.hpp"
#include "zipflm/nn/sharded_embedding.hpp"
#include "zipflm/nn/softmax_loss.hpp"

namespace zipflm {

/// Everything one local training step produces for the synchronization
/// phase.
struct LmStepResult {
  float loss = 0.0f;              ///< mean training CE (nats/token)
  std::vector<Index> input_ids;   ///< K = B*T token ids, batch-major
  Tensor input_delta;             ///< [K x embed_dim] input-embedding grad
  SparseRowGrad output_grad;      ///< sampled softmax only (ids empty otherwise)
};

/// Exported recurrent hidden state of B independent streams, the unit of
/// incremental inference.  The slot layout is model-specific (WordLm:
/// cell + output per LSTM layer; CharLm: one highway state), but every
/// slot is a [B x dim] matrix whose rows index streams — so a serving
/// layer can gather per-session rows into a batch and scatter them back
/// without knowing the architecture.
struct RecurrentState {
  std::vector<Tensor> slots;

  Index batch() const noexcept {
    return slots.empty() ? 0 : slots.front().rows();
  }
};

/// Copy one stream's state: dst row `dst_row` = src row `src_row` across
/// all slots.  Shapes (other than batch) must match.
void copy_state_row(const RecurrentState& src, Index src_row,
                    RecurrentState& dst, Index dst_row);

class LmModel {
 public:
  virtual ~LmModel() = default;

  /// Forward + backward on this rank's batch.  candidates: the sampled-
  /// softmax candidate set (ignored by full-softmax models; must include
  /// all batch targets otherwise).
  virtual void train_step_local(const Batch& batch,
                                std::span<const Index> candidates,
                                LmStepResult& out) = 0;

  /// Full-vocabulary evaluation loss (nats/token) — perplexity is
  /// exp(loss), bits-per-char is loss/ln 2.
  virtual float eval_loss(const Batch& batch) = 0;

  /// Full-vocabulary logits for the token following `context` (a single
  /// sequence).  Powers evaluation and text generation.
  virtual Tensor next_token_logits(std::span<const Index> context) = 0;

  /// Zero recurrent state for `batch` independent streams.
  virtual RecurrentState initial_state(Index batch) const = 0;

  /// Advance every stream by one token — tokens[b] is stream b's next
  /// input — and emit full-vocabulary logits [batch x V] for the token
  /// that follows.  Inference only: no dropout, no BPTT caches, no
  /// gradients.  Stepping a zero state through a history is bitwise
  /// identical to next_token_logits() over that history, which is what
  /// lets the serving layer carry state in O(1) per token.
  virtual void step(std::span<const Index> tokens, RecurrentState& state,
                    Tensor& logits) = 0;

  /// Parameters synchronized densely (ALLREDUCE) every step.
  virtual std::vector<Param*> dense_params() = 0;

  /// The row-sharded input table, or nullptr when the input embedding
  /// is replicated (the default).  Non-null changes the trainer's
  /// sparse path: forward rows are pulled per step, gradient rows are
  /// pushed to their owners, and only the owned slice is updated.
  virtual ShardedEmbedding* sharded_input() { return nullptr; }
  /// All parameters (dense + embeddings), for checkpoint/overflow scans.
  virtual std::vector<Param*> all_params() = 0;

  virtual Param& input_embedding_param() = 0;
  /// Output embedding when its gradient is row-sparse, else nullptr.
  virtual Param* sampled_output_param() = 0;

  virtual Index vocab() const = 0;
  virtual Index embed_dim() const = 0;
  virtual double flops_per_token() const = 0;
  /// Rough per-token activation footprint (bytes) for the simulated-GPU
  /// memory accounting.
  virtual std::size_t activation_bytes_per_token() const = 0;
  virtual void zero_grad() = 0;

  /// The dropout mask stream, exposed so checkpoints can capture and
  /// restore it — exact resume must replay the same masks the
  /// uninterrupted run would have drawn.
  virtual Rng& dropout_rng() = 0;

  /// Per-parameter backward-completion hook, the overlap trigger: the
  /// model invokes it on the training thread the moment a dense
  /// parameter's gradient accumulation is final for the step (its
  /// bucket can start reducing while the rest of backward runs).  The
  /// invocation sequence is part of the model's fixed backward code —
  /// never timing — so it is identical on every rank and every run.
  /// Empty hook = no overhead.  Not invoked for embedding parameters
  /// (they take the sparse exchange path).
  using BackwardHook = std::function<void(const Param&)>;
  void set_backward_hook(BackwardHook hook) {
    backward_hook_ = std::move(hook);
  }

 protected:
  void notify_param_ready(const Param& p) {
    if (backward_hook_) backward_hook_(p);
  }
  BackwardHook backward_hook_;

 public:

  /// Bytes of parameters + gradients (the model's static device cost).
  /// Prices the simulated card's budget, a gradient per value, not this
  /// process's allocations: row-sparse tables hold no dense gradient.
  std::size_t static_bytes() {
    std::size_t total = 0;
    for (const Param* p : all_params()) total += 2 * p->value.bytes();
    return total;
  }
};

struct WordLmConfig {
  Index vocab = 100'000;   ///< Section IV-A: 100k most frequent words
  Index embed_dim = 512;
  Index hidden_dim = 2048;
  Index proj_dim = 512;
  Index num_layers = 1;    ///< the paper's §II allows "several RNN layers"
  float dropout = 0.0f;    ///< between embedding/layers/softmax
  std::uint64_t seed = 1;
};

class WordLm final : public LmModel {
 public:
  explicit WordLm(const WordLmConfig& config);

  void train_step_local(const Batch& batch,
                        std::span<const Index> candidates,
                        LmStepResult& out) override;
  float eval_loss(const Batch& batch) override;
  Tensor next_token_logits(std::span<const Index> context) override;
  RecurrentState initial_state(Index batch) const override;
  void step(std::span<const Index> tokens, RecurrentState& state,
            Tensor& logits) override;
  std::vector<Param*> dense_params() override;
  std::vector<Param*> all_params() override;
  Param& input_embedding_param() override { return input_.param(); }
  Param* sampled_output_param() override { return &loss_.embedding(); }
  Index vocab() const override { return config_.vocab; }
  Index embed_dim() const override { return config_.embed_dim; }
  double flops_per_token() const override;
  std::size_t activation_bytes_per_token() const override;
  void zero_grad() override;
  Rng& dropout_rng() override { return dropout_rng_; }

 private:
  void run_forward(const Batch& batch, Tensor& h_all, bool train);

  WordLmConfig config_;
  Embedding input_;
  std::vector<LstmLayer> layers_;
  SampledSoftmaxLoss loss_;
  std::vector<Dropout> dropouts_;  ///< one per layer boundary (train only)
  Rng dropout_rng_;
};

struct CharLmConfig {
  Index vocab = 98;        ///< English character inventory
  Index embed_dim = 256;
  Index hidden_dim = 1792; ///< paper: RHN with 1792 cells
  Index depth = 10;        ///< paper: recurrence depth 10
  float dropout = 0.0f;    ///< §IV-B: char LM trains with dropout
  std::uint64_t seed = 1;
  /// shard_world >= 1 row-shards the input table over that many ranks
  /// (1 is a legal one-way shard — the sharded code path with nothing
  /// to ship): this replica holds rows [shard_rank*V/G,
  /// (shard_rank+1)*V/G) only and relies on the trainer's pull/push
  /// exchange.  0 (the default) keeps the replicated table.  The RNG
  /// stream consumed for the shard is the full replicated table's, so
  /// shards of any G are bitwise slices of the same init.
  int shard_rank = 0;
  int shard_world = 0;
};

class CharLm final : public LmModel {
 public:
  explicit CharLm(const CharLmConfig& config);

  void train_step_local(const Batch& batch,
                        std::span<const Index> candidates,
                        LmStepResult& out) override;
  float eval_loss(const Batch& batch) override;
  Tensor next_token_logits(std::span<const Index> context) override;
  RecurrentState initial_state(Index batch) const override;
  void step(std::span<const Index> tokens, RecurrentState& state,
            Tensor& logits) override;
  std::vector<Param*> dense_params() override;
  std::vector<Param*> all_params() override;
  ShardedEmbedding* sharded_input() override { return sharded_input_.get(); }
  Param& input_embedding_param() override {
    return sharded_input_ != nullptr ? sharded_input_->param()
                                     : input_->param();
  }
  Param* sampled_output_param() override { return nullptr; }
  Index vocab() const override { return config_.vocab; }
  Index embed_dim() const override { return config_.embed_dim; }
  double flops_per_token() const override;
  std::size_t activation_bytes_per_token() const override;
  void zero_grad() override;
  Rng& dropout_rng() override { return dropout_rng_; }

 private:
  /// Reads token rows through whichever table exists: the replicated
  /// Embedding, or the sharded layer's step-scoped pull cache.
  void embed_tokens(std::span<const Index> ids, Tensor& out) const;

  CharLmConfig config_;
  std::unique_ptr<Embedding> input_;          ///< replicated (default)
  std::unique_ptr<ShardedEmbedding> sharded_input_;  ///< shard_world > 1
  RhnLayer rhn_;
  FullSoftmaxLoss loss_;
  Dropout embed_dropout_;
  Dropout output_dropout_;
  Rng dropout_rng_;
};

/// Perplexity and bits-per-character from a nats/token loss.
inline double perplexity(double nats) { return std::exp(nats); }
inline double bits_per_token(double nats) { return nats / std::numbers::ln2; }

}  // namespace zipflm
