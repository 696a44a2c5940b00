// Model checkpointing: versioned binary serialization of every named
// parameter, so multi-day runs (the paper's epochs are 14-35 *hours*)
// survive restarts, and so trained models can be shipped to evaluation
// or generation tools.
//
// Format v2: magic, version, metadata, then per parameter
// (name, rank, dims..., raw FP32 payload), then an optional training
// state section (optimizer moments, loss-scaler policy, per-rank RNG
// streams) and a trailing FNV-1a64 checksum over everything before it.
// Load validates the checksum first, then names and shapes against the
// receiving model — a half-written file from a crash mid-save, a
// loading a word-LM checkpoint into a char LM, or a flipped bit all
// fail loudly, not silently.
//
// The training state is what turns "load the weights" into *exact*
// resume: restoring it makes the continued run bitwise identical to one
// that never stopped.  File saves are atomic (temp file + rename), so a
// crash during save leaves the previous checkpoint intact.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "zipflm/nn/lm_model.hpp"
#include "zipflm/nn/loss_scaler.hpp"

namespace zipflm {

struct CheckpointMeta {
  std::uint64_t global_step = 0;
  std::uint64_t epoch = 0;
};

/// Everything beyond the parameters that exact resume needs.  Replicas
/// are bit-identical across ranks (a continuously tested invariant), so
/// one optimizer blob serves every rank; the RNG streams are saved per
/// global rank because each rank draws its own dropout masks.
struct TrainState {
  bool present = false;
  std::string optimizer_blob;  ///< Optimizer::save_state of one replica
  bool has_scaler = false;
  LossScaler::State scaler;
  /// xoshiro256** words of each rank's dropout stream, by global rank.
  std::vector<std::array<std::uint64_t, 4>> rank_rng;
};

/// Serialize all parameters of the model (plus metadata and, when given,
/// the training state) to the stream, checksummed.
void save_checkpoint(std::ostream& out, LmModel& model,
                     const CheckpointMeta& meta = {},
                     const TrainState* train = nullptr);

/// Same format over an explicit parameter list — used when the on-disk
/// canonical set differs from the live model's (a row-sharded trainer
/// saves the assembled full table under the replicated layout, so its
/// checkpoints load into any world size, including world 1).
void save_checkpoint(std::ostream& out, std::span<Param* const> params,
                     const CheckpointMeta& meta = {},
                     const TrainState* train = nullptr);

/// Restore parameters into an identically-shaped model.  Throws
/// ConfigError on checksum/magic/version/name/shape mismatch.  When
/// `train` is non-null it receives the training state section
/// (train->present says whether the checkpoint carried one).  Returns
/// the saved metadata.
CheckpointMeta load_checkpoint(std::istream& in, LmModel& model,
                               TrainState* train = nullptr);

/// Explicit-parameter-list counterpart of the model load.
CheckpointMeta load_checkpoint(std::istream& in,
                               std::span<Param* const> params,
                               TrainState* train = nullptr);

/// Atomic file save: `write` fills `path + ".tmp"`, which is flushed
/// and renamed over `path` only once fully written, so a crash mid-save
/// cannot destroy the previous file.  Throws ConfigError (and removes
/// the temp file when the rename fails) if any step fails.
void save_file_atomically(const std::string& path,
                          const std::function<void(std::ostream&)>& write);

/// Convenience file wrappers; saving goes through save_file_atomically.
void save_checkpoint_file(const std::string& path, LmModel& model,
                          const CheckpointMeta& meta = {},
                          const TrainState* train = nullptr);
CheckpointMeta load_checkpoint_file(const std::string& path, LmModel& model,
                                    TrainState* train = nullptr);

}  // namespace zipflm
