// One rank's training step, in the paper's fixed per-rank order:
// forward and backward, reduce the dense gradients, exchange the
// embedding gradients, update.  The dense ALLREDUCE runs as its two
// ring halves around the update: each rank reduce-scatters, steps the
// chunk it owns and allgathers the values (DenseGradSync).  It talks to peers only through a
// Communicator, so the same step runs as a CommWorld thread
// (DistributedTrainer) or a ProcessGroup process.  Drivers own the data
// order, the learning-rate schedule and the aggregate statistics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "zipflm/comm/async_exchange.hpp"
#include "zipflm/comm/communicator.hpp"
#include "zipflm/core/exchange.hpp"
#include "zipflm/core/grad_sync.hpp"
#include "zipflm/core/seeding.hpp"
#include "zipflm/core/sharded_exchange.hpp"
#include "zipflm/data/batch.hpp"
#include "zipflm/device/device.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/nn/loss_scaler.hpp"
#include "zipflm/nn/optimizer.hpp"

namespace zipflm {

struct TrainerOptions {
  bool unique_exchange = true;    ///< Section III-A
  WirePrecision wire = WirePrecision::FP32;  ///< Section III-C
  float compression_scale = 1024.0f;
  /// Gradient wire codec for the sum-reductions (dense reduce-scatters
  /// and the UNIQUE M block allreduce): Packed is lossless byte-plane+RLE (bitwise
  /// identical results); Int8 quantizes each ring chunk with a per-chunk
  /// FP32 scale (deterministic, epsilon-gated on accuracy).
  WireCodec wire_codec = WireCodec::None;
  /// Delta+varint-code the index allgatherv legs (always lossless).
  bool index_codec = false;
  SeedPolicy seed_policy = SeedPolicy::PerRank;  ///< Section III-B
  Index samples_per_rank = 0;     ///< S; 0 = full softmax (char LM)

  BatchSpec batch;
  float base_lr = 0.2f;           ///< paper's 8-GPU base rates
  float lr_decay = 0.9f;          ///< per-epoch decay (paper: 0.85-0.95)
  float clip = 1.0f;              ///< gradient clip (0 disables)
  bool use_adam = false;          ///< Adam for char LM, SGD for word LM
  std::uint64_t seed = 42;

  DeviceProps device = DeviceProps::titan_x();
  double compute_efficiency = 0.4;  ///< fraction of peak FLOP/s achieved
  /// Charge model + activations against the simulated pool (disable for
  /// tiny unit-test models where the accounting is noise).
  bool charge_static_memory = true;
  /// Dynamic loss-scaler overflow policy: when any synchronized gradient
  /// comes back non-finite (e.g. a corrupted wire payload), every rank
  /// deterministically skips the optimizer step and backs the scale off
  /// instead of poisoning the weights.  Off by default — each step every
  /// rank scans what it updates and a one-float max-allreduce votes, and
  /// existing trajectories must not move.
  bool dynamic_loss_scale = false;
  float initial_loss_scale = 1024.0f;
  /// When > 0, dense rank 0 refreshes the expensive "train/..." gauges
  /// (grad_norm, tokens_per_s) every N optimizer steps and invokes
  /// metrics_sink (when set) with the global step index.  The gradient
  /// norm sums every rank's owned chunks through one scalar allreduce,
  /// so at G > 1 every rank joins it.  The sink runs on rank 0's thread,
  /// mid-epoch — keep it cheap and thread-safe.
  int metrics_every = 0;
  std::function<void(std::uint64_t global_step)> metrics_sink;

  /// Overlapped bucketed gradient exchange: pack the dense gradients
  /// into fixed-byte buckets in reverse-backprop order and launch each
  /// bucket's reduce-scatters on a per-rank comm thread the moment its last
  /// parameter's backward completes; the embedding index allgather is
  /// kicked off eagerly at step start.  Bitwise identical to the
  /// synchronous path, which runs the same buckets inline after
  /// backward (fixed bucket boundaries, fixed ring schedules —
  /// tests/test_async_exchange.cpp asserts `==`).  Off by default
  /// because the eager id gather moves ahead of the dense reductions,
  /// which would silently shift recorded fault-injection points
  /// (FaultSpec::at_collective counts collectives).
  bool overlapped_exchange = false;
  std::size_t overlap_bucket_bytes = std::size_t{4} << 20;
  /// Row-shard the input embedding table across ranks (char LM only):
  /// rank r owns rows [r*V/G, (r+1)*V/G) plus their Adam moment slices,
  /// forward rows are pulled per step and gradient rows pushed to their
  /// owners over alltoallv.  The model factory must build matching
  /// shards (CharLmConfig::shard_rank/shard_world = rank/world).
  /// Replicated mode stays the default and the bitwise test oracle:
  /// sharded losses and assembled weights are `==` replicated ones.
  /// Requires FP32 wire; Packed/index codecs apply to the row payloads.
  bool shard_embedding = false;
};

class RankStep {
 public:
  /// What one step reports to its driver.
  struct Outcome {
    float loss = 0.0f;              ///< this rank's local training CE
    bool applied = true;            ///< false: the overflow guard skipped
    std::uint64_t unique_rows = 0;  ///< U_g of the input embedding
  };

  /// Rank `rank` of a `world_size`-rank run over `model`.  Checks the
  /// model against the options: a sharded input table must carry this
  /// rank's geometry, and only when shard_embedding is on.  A RankStep
  /// may move only while no Session is bound to it: a session's hook
  /// and engine jobs hold the address of its dense sync.
  RankStep(const TrainerOptions& options, std::unique_ptr<LmModel> model,
           int rank, int world_size);

  /// Binds the step to one communicator for a run of steps (an epoch):
  /// owns the overlap engine — a comm thread when overlapped_exchange is
  /// on, inline otherwise — and, when overlapped, hooks backward into
  /// the dense sync.  The destructor unhooks and disarms, including
  /// when a fault unwinds mid-step, and publishes the
  /// "comm/overlap_efficiency" gauge from dense rank 0.
  class Session {
   public:
    Session(RankStep& rank, Communicator& comm);
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// One training step on `batch`; `global_step` seeds the sampled
    /// softmax candidates and labels the "train_step" span.
    Outcome step(const Batch& batch, std::uint64_t global_step);

   private:
    RankStep& rank_;
    Communicator& comm_;
    AsyncCommEngine engine_;
    std::uint64_t steps_ = 0;  ///< this session's, for metrics_every
    std::chrono::steady_clock::time_point interval_start_;
    LmStepResult res_;  ///< reused across the session's steps
  };

  /// Full-vocabulary loss of one validation batch (pulls the batch's
  /// rows first when the input table is sharded — a collective).
  float eval_loss(Communicator& comm, const Batch& batch);

  LmModel& model() noexcept { return *model_; }
  Optimizer& optimizer() noexcept { return *optimizer_; }
  const Optimizer& optimizer() const noexcept { return *optimizer_; }
  MemoryPool& pool() noexcept { return *pool_; }
  const MemoryPool& pool() const noexcept { return *pool_; }
  /// Null unless dynamic_loss_scale.
  LossScaler* scaler() noexcept {
    return scaler_.has_value() ? &*scaler_ : nullptr;
  }

 private:
  TrainerOptions options_;
  std::unique_ptr<LmModel> model_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<MemoryPool> pool_;
  std::optional<LossScaler> scaler_;
  std::unique_ptr<EmbeddingExchange> exchange_;
  /// Non-null iff shard_embedding: exchange_, typed for the row pulls.
  ShardedEmbeddingExchange* sharded_ = nullptr;
  std::optional<ControlledSampler> sampler_;
  DenseGradSync dense_sync_;
  Allocation static_memory_;
};

}  // namespace zipflm
