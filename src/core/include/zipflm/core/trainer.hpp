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
// Each simulated GPU rank is one RankStep (rank_step.hpp): a full model
// replica, a simulated memory pool and an optimizer, stepped over the
// CommWorld's collectives, so the traffic ledger and pool high-water
// marks are exact measurements, and the invariant "all replicas remain
// bit-identical across steps" is continuously testable.  The trainer
// adds what spans ranks: the data shards, the learning-rate schedule,
// epoch statistics, checkpoints and fault rollback.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/rank_step.hpp"

namespace zipflm {

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
  const Optimizer& optimizer(int rank) const;
  const MemoryPool& pool(int rank) const;
  const TrainerOptions& options() const noexcept { return options_; }

  /// True iff every live replica's parameters are bit-identical to the
  /// first live rank's.
  bool replicas_in_sync();

 private:
  /// The replicated param layout of one rank, with the sharded table
  /// entry (when present) redirected to `full` — the canonical
  /// checkpoint parameter list.
  std::vector<Param*> checkpoint_params(LmModel& model, Param& full) const;

  CommWorld& world_;
  TrainerOptions options_;
  std::vector<RankStep> ranks_;  ///< per global rank
  std::uint64_t global_step_ = 0;
  std::uint64_t epochs_completed_ = 0;
};

}  // namespace zipflm
