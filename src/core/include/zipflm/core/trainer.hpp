// Data-parallel distributed LM trainer — the training loop of Section II
// with the paper's three optimizations switchable one by one, exactly as
// the Fig 6 ablation requires:
//
//   baseline        : dense ALLGATHER embedding exchange, FP32 wire,
//                     per-rank softmax seeds
//   +uniqueness     : UniqueExchange on both embedding layers
//   +seeding        : controlled seed groups for the sampled softmax
//   +compression    : FP16 wire with compression-scaling
//
// Each simulated GPU rank owns a full model replica, a simulated memory
// pool, and an optimizer; every synchronization runs through the
// CommWorld's collectives, so the traffic ledger and pool high-water
// marks are exact measurements, and the invariant "all replicas remain
// bit-identical across steps" is continuously testable.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/exchange.hpp"
#include "zipflm/core/grad_sync.hpp"
#include "zipflm/core/sharded_exchange.hpp"
#include "zipflm/core/seeding.hpp"
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
  /// Gradient wire codec for the sum-allreduces (dense buckets and the
  /// UNIQUE M block): Packed is lossless byte-plane+RLE (bitwise
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
  /// instead of poisoning the weights.  Off by default — the guard scans
  /// every gradient each step, and existing trajectories must not move.
  bool dynamic_loss_scale = false;
  float initial_loss_scale = 1024.0f;
  /// When > 0, dense rank 0 refreshes the expensive "train/..." gauges
  /// (grad_norm, tokens_per_s) every N optimizer steps and invokes
  /// metrics_sink (when set) with the global step index.  The sink runs
  /// on rank 0's thread, mid-epoch — keep it cheap and thread-safe.
  int metrics_every = 0;
  std::function<void(std::uint64_t global_step)> metrics_sink;

  /// Overlapped bucketed gradient exchange: pack the dense gradients
  /// into fixed-byte buckets in reverse-backprop order and launch each
  /// bucket's allreduce on a per-rank comm thread the moment its last
  /// parameter's backward completes; the embedding index allgather is
  /// kicked off eagerly at step start.  Bitwise identical to the
  /// synchronous path (fixed bucket boundaries, fixed ring schedules —
  /// tests/test_async_exchange.cpp asserts `==`).  Off by default
  /// because bucketing changes the per-rank collective schedule, which
  /// would silently invalidate recorded fault-injection points
  /// (FaultSpec::at_collective counts collectives) and per-collective
  /// ledger expectations of existing configs.
  bool overlapped_exchange = false;
  std::size_t overlap_bucket_bytes = std::size_t{4} << 20;
  /// Row-shard the input embedding table across ranks (char LM only):
  /// rank r owns rows [r*V/G, (r+1)*V/G) plus their Adam moment slices,
  /// forward rows are pulled per step and gradient rows pushed to their
  /// owners over alltoallv.  The model factory must build matching
  /// shards (CharLmConfig::shard_rank/shard_world = rank/world).
  /// Replicated mode stays the default and the bitwise test oracle:
  /// sharded losses and assembled weights are `==` replicated ones.
  /// Requires FP32 wire and no dynamic loss scaling; Packed/index
  /// codecs apply to the row payloads.
  bool shard_embedding = false;
};

struct EpochStats {
  double train_loss = 0.0;      ///< mean training CE (nats/token)
  double valid_loss = 0.0;      ///< full-vocabulary CE on the valid set
  double valid_perplexity = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t skipped_steps = 0;  ///< overflow-guard skips (per rank)
  int restarts = 0;  ///< fault rollbacks consumed (resilient epochs only)
  std::uint64_t global_unique_sum = 0;  ///< Σ over steps of U_g (input emb)
  TrafficLedger comm_total;     ///< summed over ranks, this epoch
  std::uint64_t peak_memory_bytes = 0;  ///< max over ranks
  double sim_comm_seconds = 0.0;     ///< critical path (max over ranks)
  double sim_compute_seconds = 0.0;  ///< per-rank compute time
  double sim_total_seconds = 0.0;
};

class DistributedTrainer {
 public:
  /// The factory must return identically-initialized replicas (same
  /// seeds) regardless of rank — the trainer verifies this invariant.
  using ModelFactory = std::function<std::unique_ptr<LmModel>(int rank)>;

  DistributedTrainer(CommWorld& world, const ModelFactory& factory,
                     TrainerOptions options);

  /// One epoch over train_ids (sharded across ranks) followed by a
  /// full-vocabulary evaluation over valid_ids.
  EpochStats run_epoch(std::span<const Index> train_ids,
                       std::span<const Index> valid_ids, int epoch);

  /// Fault-tolerant epoch: checkpoints the full training state to
  /// `checkpoint_path` before starting, and on CollectiveTimeoutError
  /// (a rank died mid-epoch) rolls every surviving replica back to that
  /// checkpoint and reruns the epoch over the surviving ranks only —
  /// the dead rank was already retired by CommWorld::run.  Gives up
  /// (rethrows) after `max_restarts` rollbacks.
  EpochStats run_epoch_resilient(std::span<const Index> train_ids,
                                 std::span<const Index> valid_ids, int epoch,
                                 const std::string& checkpoint_path,
                                 int max_restarts = 2);

  /// Full-vocabulary validation loss (nats/token).
  double evaluate(std::span<const Index> valid_ids);

  /// Write a v2 checkpoint carrying parameters, optimizer moments,
  /// loss-scaler policy, and every rank's dropout RNG stream — enough
  /// that a restored run continues bitwise identically to one that was
  /// never interrupted.  The file variant writes atomically.
  void save_state(std::ostream& out);
  void save_state_file(const std::string& path);
  /// Restore all replicas from a checkpoint written by save_state.
  /// Throws ConfigError if the checkpoint carries no training state.
  /// Sharded trainers write the canonical replicated layout (the full
  /// assembled table + moments), so a checkpoint saved at any world
  /// size restores into any other — pass allow_world_resize=true to
  /// accept a rank count mismatch (weights and moments re-shard
  /// exactly; the per-rank dropout streams, which only exist for the
  /// saved ranks, are restored for the ranks both runs share, so
  /// bitwise resume is only guaranteed at the saved world size).
  void restore_state(std::istream& in, bool allow_world_resize = false);
  void restore_state_file(const std::string& path,
                          bool allow_world_resize = false);

  std::uint64_t global_step() const noexcept { return global_step_; }
  std::uint64_t epochs_completed() const noexcept {
    return epochs_completed_;
  }

  LmModel& model(int rank);
  const MemoryPool& pool(int rank) const;
  const TrainerOptions& options() const noexcept { return options_; }

  /// True iff every live replica's parameters are bit-identical to the
  /// first live rank's.
  bool replicas_in_sync();

 private:
  /// Returns false when the overflow guard skipped the optimizer step.
  /// `dense_sync` is this rank's, armed when overlap is on; `pending` is
  /// the eager id gather, or nullptr for the synchronous path.
  bool sync_step(Communicator& comm, LmModel& model, Optimizer& opt,
                 MemoryPool& pool, LossScaler* scaler,
                 const LmStepResult& res, std::uint64_t* unique_out,
                 DenseGradSync& dense_sync, const PendingIdGather* pending);

  /// The replicated param layout of one rank, with the sharded table
  /// entry (when present) redirected to `full` — the canonical
  /// checkpoint parameter list.
  std::vector<Param*> checkpoint_params(LmModel& model, Param& full) const;

  CommWorld& world_;
  TrainerOptions options_;
  std::unique_ptr<EmbeddingExchange> exchange_;
  /// Non-null iff options_.shard_embedding: the pull/push strategy that
  /// exchange_ owns, typed for the per-step pull calls.
  ShardedEmbeddingExchange* sharded_exchange_ = nullptr;
  std::vector<DenseGradSync> dense_syncs_;  ///< per global rank
  std::optional<ControlledSampler> sampler_;
  std::vector<std::unique_ptr<LmModel>> models_;
  std::vector<std::unique_ptr<Optimizer>> optimizers_;
  std::vector<std::unique_ptr<MemoryPool>> pools_;
  std::vector<LossScaler> scalers_;  ///< per rank; empty unless dynamic
  std::vector<Allocation> static_memory_;
  std::uint64_t global_step_ = 0;
  std::uint64_t epochs_completed_ = 0;
};

}  // namespace zipflm
