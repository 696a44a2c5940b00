#include "zipflm/core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "zipflm/core/checkpoint.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/support/serialize.hpp"

namespace zipflm {

namespace {
/// Fraction of the device's peak FLOP/s the simulated compute time
/// assumes (the paper's word LM reaches 40%).
constexpr double kComputeEfficiency = 0.4;
}  // namespace

DistributedTrainer::DistributedTrainer(CommWorld& world,
                                       const ModelFactory& factory,
                                       TrainerOptions options)
    : world_(world), options_(std::move(options)) {
  const int g = world.total_ranks();
  ranks_.reserve(static_cast<std::size_t>(g));
  for (int r = 0; r < g; ++r) ranks_.emplace_back(options_, factory(r), r, g);
}

LmModel& DistributedTrainer::model(int rank) {
  ZIPFLM_CHECK(rank >= 0 && rank < world_.total_ranks(), "rank out of range");
  return ranks_[static_cast<std::size_t>(rank)].model();
}

const Optimizer& DistributedTrainer::optimizer(int rank) const {
  ZIPFLM_CHECK(rank >= 0 && rank < world_.total_ranks(), "rank out of range");
  return ranks_[static_cast<std::size_t>(rank)].optimizer();
}

const MemoryPool& DistributedTrainer::pool(int rank) const {
  ZIPFLM_CHECK(rank >= 0 && rank < world_.total_ranks(), "rank out of range");
  return ranks_[static_cast<std::size_t>(rank)].pool();
}

EpochStats DistributedTrainer::run_epoch(std::span<const Index> train_ids,
                                         std::span<const Index> valid_ids,
                                         int epoch) {
  obs::SpanScope epoch_span("epoch", "epoch", static_cast<double>(epoch));
  const int g = world_.world_size();
  const float lr = scaled_learning_rate(
      options_.base_lr, world_.topology().nodes, epoch, options_.lr_decay);
  for (RankStep& rank : ranks_) {
    rank.optimizer().set_learning_rate(lr);
    rank.pool().reset_peak();
  }
  world_.reset_ledgers();

  std::vector<double> rank_loss(static_cast<std::size_t>(g), 0.0);
  std::vector<std::uint64_t> rank_steps(static_cast<std::size_t>(g), 0);
  std::vector<std::uint64_t> rank_skipped(static_cast<std::size_t>(g), 0);
  std::vector<std::uint64_t> rank_unique(static_cast<std::size_t>(g), 0);
  const std::uint64_t step_base = global_step_;

  world_.run([&](Communicator& comm) {
    // Dense rank dr shards the data over the live world; global rank r
    // owns this rank's replica, optimizer, and pool — the two diverge
    // once a rank has been retired by a fault.
    const auto dr = static_cast<std::size_t>(comm.rank());
    const int r = world_.live_ranks()[dr];
    RankStep::Session session(ranks_[static_cast<std::size_t>(r)], comm);
    BatchIterator it(train_ids, options_.batch, comm.rank(), g);
    Batch batch;
    std::uint64_t local_step = 0;
    while (it.next(batch)) {
      const RankStep::Outcome out =
          session.step(batch, step_base + local_step);
      if (!out.applied) ++rank_skipped[dr];
      rank_loss[dr] += out.loss;
      rank_unique[dr] += out.unique_rows;
      ++local_step;
    }
    rank_steps[dr] = local_step;
  });

  EpochStats stats;
  stats.steps = rank_steps.front();
  for (std::uint64_t s : rank_steps) {
    ZIPFLM_ASSERT(s == stats.steps, "ranks must run identical step counts");
  }
  stats.skipped_steps = rank_skipped.front();
  for (std::uint64_t s : rank_skipped) {
    ZIPFLM_ASSERT(s == stats.skipped_steps,
                  "overflow skips must be uniform across ranks");
  }
  global_step_ += stats.steps;

  double loss_sum = 0.0;
  for (double l : rank_loss) loss_sum += l;
  stats.train_loss =
      stats.steps == 0 ? 0.0
                       : loss_sum / static_cast<double>(stats.steps * g);
  stats.global_unique_sum = rank_unique.front();

  stats.valid_loss = evaluate(valid_ids);
  stats.valid_perplexity = std::exp(stats.valid_loss);

  stats.comm_total = world_.total_ledger();
  stats.sim_comm_seconds = world_.max_simulated_comm_seconds();
  for (RankStep& rank : ranks_) {
    stats.peak_memory_bytes =
        std::max<std::uint64_t>(stats.peak_memory_bytes, rank.pool().peak());
  }
  const double flops_per_step =
      static_cast<double>(options_.batch.tokens_per_rank()) *
      ranks_.front().model().flops_per_token();
  stats.sim_compute_seconds =
      static_cast<double>(stats.steps) *
      options_.device.seconds_for_flops(flops_per_step, kComputeEfficiency);
  stats.sim_total_seconds = stats.sim_compute_seconds + stats.sim_comm_seconds;
  ++epochs_completed_;
  return stats;
}

EpochStats DistributedTrainer::run_epoch_resilient(
    std::span<const Index> train_ids, std::span<const Index> valid_ids,
    int epoch, const std::string& checkpoint_path, int max_restarts) {
  save_state_file(checkpoint_path);
  int restarts = 0;
  for (;;) {
    try {
      EpochStats stats = run_epoch(train_ids, valid_ids, epoch);
      stats.restarts = restarts;
      return stats;
    } catch (const CollectiveTimeoutError&) {
      // A rank died mid-epoch.  CommWorld::run already retired it; the
      // survivors' replicas are part-way through the epoch (and possibly
      // mid-step), so roll them back to the pre-epoch checkpoint and
      // rerun over the degraded world.
      if (restarts >= max_restarts) throw;
      ++restarts;
      restore_state_file(checkpoint_path);
    }
  }
}

double DistributedTrainer::evaluate(std::span<const Index> valid_ids) {
  obs::SpanScope eval_span("evaluate");
  const int g = world_.world_size();
  std::vector<double> rank_loss(static_cast<std::size_t>(g), 0.0);
  std::vector<std::uint64_t> rank_batches(static_cast<std::size_t>(g), 0);

  world_.run([&](Communicator& comm) {
    const auto dr = static_cast<std::size_t>(comm.rank());
    RankStep& rank =
        ranks_[static_cast<std::size_t>(world_.live_ranks()[dr])];
    BatchIterator it(valid_ids, options_.batch, comm.rank(), g);
    Batch batch;
    while (it.next(batch)) {
      rank_loss[dr] += rank.eval_loss(comm, batch);
      ++rank_batches[dr];
    }
  });

  double loss = 0.0;
  std::uint64_t batches = 0;
  for (int r = 0; r < g; ++r) {
    loss += rank_loss[static_cast<std::size_t>(r)];
    batches += rank_batches[static_cast<std::size_t>(r)];
  }
  return batches == 0 ? 0.0 : loss / static_cast<double>(batches);
}

bool DistributedTrainer::replicas_in_sync() {
  const auto& live = world_.live_ranks();
  LmModel& ref_model = model(live.front());
  auto reference = ref_model.all_params();
  const Param* ref_shard = ref_model.sharded_input() != nullptr
                               ? &ref_model.sharded_input()->param()
                               : nullptr;
  for (std::size_t i = 1; i < live.size(); ++i) {
    LmModel& m = model(live[i]);
    auto params = m.all_params();
    const Param* shard =
        m.sharded_input() != nullptr ? &m.sharded_input()->param() : nullptr;
    if (params.size() != reference.size()) return false;
    for (std::size_t j = 0; j < params.size(); ++j) {
      if (shard != nullptr && params[j] == shard &&
          reference[j] == ref_shard) {
        // Shards are disjoint slices by construction — only the dense
        // replicas (and the replicated tables) must stay bit-identical.
        continue;
      }
      if (!(params[j]->value == reference[j]->value)) return false;
    }
  }
  return true;
}

std::vector<Param*> DistributedTrainer::checkpoint_params(LmModel& model,
                                                          Param& full) const {
  auto params = model.all_params();
  ShardedEmbedding* se = model.sharded_input();
  if (se != nullptr) {
    for (Param*& p : params) {
      if (p == &se->param()) p = &full;
    }
  }
  return params;
}

void DistributedTrainer::save_state(std::ostream& out) {
  // Dense weights and replicated tables are bit-identical on every live
  // rank (replicas_in_sync is a tested invariant), so the first live
  // rank's stand for all; the dropout streams are saved per rank
  // because each rank draws its own.
  const std::vector<int>& live = world_.live_ranks();
  RankStep& rank0 = ranks_[static_cast<std::size_t>(live.front())];
  LmModel& reference = rank0.model();

  TrainState ts;
  ts.present = true;
  if (const LossScaler* scaler = rank0.scaler(); scaler != nullptr) {
    ts.has_scaler = true;
    ts.scaler = scaler->state();
  }
  ts.rank_rng.reserve(ranks_.size());
  for (RankStep& rank : ranks_) {
    ts.rank_rng.push_back(rank.model().dropout_rng().state());
  }
  const CheckpointMeta meta{global_step_, epochs_completed_};

  // The on-disk layout is the CANONICAL replicated one.  A sharded
  // table is written whole (V x D, under the replicated parameter
  // name), assembled from every rank's owned rows, so a checkpoint
  // saved at any world size restores into any other (re-sharding is
  // just re-slicing on load), and into a replicated model unchanged.
  const Index dim = reference.embed_dim();
  Param full("embedding", options_.shard_embedding
                              ? Tensor({reference.vocab(), dim})
                              : Tensor());
  for (RankStep& rank : ranks_) {
    const ShardedEmbedding* se = rank.model().sharded_input();
    if (se == nullptr) continue;
    std::memcpy(full.value.data().data() + se->row_begin() * dim,
                se->param().value.data().data(), se->param().value.bytes());
  }
  const auto params = checkpoint_params(reference, full);

  if (options_.use_adam) {
    // Adam's save_state format (step count, then per parameter a
    // presence byte + raw m + raw v), stitched from the live ranks'
    // moment slices: dense owner chunks, sharded table rows, and the
    // whole moments of replicated tables.  Elements no slice covers
    // stay zero, matching Adam's lazily-zero-initialized moments.
    std::ostringstream blob(std::ios::binary);
    write_pod<std::int64_t>(
        blob, static_cast<const Adam&>(rank0.optimizer()).step_count());
    std::vector<std::vector<Param*>> rank_params;
    for (const int r : live) {
      rank_params.push_back(
          ranks_[static_cast<std::size_t>(r)].model().all_params());
    }
    for (std::size_t j = 0; j < params.size(); ++j) {
      Tensor fm(params[j]->value.shape());
      Tensor fv(params[j]->value.shape());
      bool present = false;
      for (std::size_t dr = 0; dr < live.size(); ++dr) {
        RankStep& rank = ranks_[static_cast<std::size_t>(live[dr])];
        const auto& opt = static_cast<const Adam&>(rank.optimizer());
        const Param& rp = *rank_params[dr][j];
        if (!opt.has_moments(rp)) continue;
        present = true;
        std::size_t at = opt.moment_begin(rp);
        if (params[j] == &full) {
          at += static_cast<std::size_t>(
              rank.model().sharded_input()->row_begin() * dim);
        }
        std::memcpy(fm.data().data() + at, opt.moment_m(rp).data().data(),
                    opt.moment_m(rp).bytes());
        std::memcpy(fv.data().data() + at, opt.moment_v(rp).data().data(),
                    opt.moment_v(rp).bytes());
      }
      write_pod<std::uint8_t>(blob, present ? 1 : 0);
      if (!present) continue;
      blob.write(reinterpret_cast<const char*>(fm.data().data()),
                 static_cast<std::streamsize>(fm.bytes()));
      blob.write(reinterpret_cast<const char*>(fv.data().data()),
                 static_cast<std::streamsize>(fv.bytes()));
    }
    ts.optimizer_blob = blob.str();
  }  // SGD carries no optimizer state (Optimizer::save_state is a no-op).

  save_checkpoint(out, std::span<Param* const>(params), meta, &ts);
}

void DistributedTrainer::restore_state(std::istream& in,
                                       bool allow_world_resize) {
  // Every replica re-reads the same serialized bytes: N in-memory parses
  // instead of one parse + N deep copies, and the code paths stay the
  // same whether the source is a file or a test's stringstream.
  const std::string raw(std::istreambuf_iterator<char>(in), {});
  CheckpointMeta meta;
  TrainState ts;
  const Index vocab = ranks_.front().model().vocab();
  const Index dim = ranks_.front().model().embed_dim();
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    LmModel& m = ranks_[r].model();
    std::istringstream stream(raw, std::ios::binary);
    // A sharded table reads the canonical full table into a scratch
    // parameter, then keeps only this replica's owned rows.
    ShardedEmbedding* se = m.sharded_input();
    Param full("embedding", se != nullptr ? Tensor({vocab, dim}) : Tensor());
    const auto params = checkpoint_params(m, full);
    meta = load_checkpoint(stream, std::span<Param* const>(params),
                           r == 0 ? &ts : nullptr);
    if (se != nullptr) {
      std::memcpy(se->param().value.data().data(),
                  full.value.data().data() + se->row_begin() * dim,
                  se->param().value.bytes());
      se->clear_cache();
    }
  }
  ZIPFLM_CHECK(ts.present,
               "checkpoint carries no training state; it can initialize "
               "weights but not resume a run exactly");
  ZIPFLM_CHECK(allow_world_resize || ts.rank_rng.size() == ranks_.size(),
               "checkpoint rank count does not match this trainer (saved " +
                   std::to_string(ts.rank_rng.size()) + ", have " +
                   std::to_string(ranks_.size()) +
                   "); pass allow_world_resize to re-shard on load");
  ZIPFLM_CHECK(!options_.dynamic_loss_scale || ts.has_scaler,
               "checkpoint has no loss-scaler state but dynamic scaling "
               "is enabled");

  const std::vector<int>& live = world_.live_ranks();
  const int g = static_cast<int>(live.size());
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankStep& rank = ranks_[r];
    const auto pos = std::find(live.begin(), live.end(), static_cast<int>(r));
    if (options_.use_adam) {
      // Parse the canonical blob and keep this rank's slice of each
      // moment: its owned chunk of every dense parameter at the live
      // world size, its rows of a sharded table, whole replicated
      // tables.  Retired ranks never step again and keep nothing.
      auto& opt = static_cast<Adam&>(rank.optimizer());
      opt.clear_moments();
      std::istringstream blob(ts.optimizer_blob, std::ios::binary);
      const auto steps = read_pod<std::int64_t>(blob);
      ZIPFLM_CHECK(steps >= 0, "negative Adam step count in optimizer state");
      opt.set_step_count(steps);
      const auto params = rank.model().all_params();
      const auto dense = rank.model().dense_params();
      const ShardedEmbedding* se = rank.model().sharded_input();
      for (Param* p : params) {
        if (read_pod<std::uint8_t>(blob) == 0) continue;
        const bool table = se != nullptr && p == &se->param();
        const std::vector<Index> shape =
            table ? std::vector<Index>{vocab, dim} : p->value.shape();
        Tensor m(shape);
        Tensor v(shape);
        blob.read(reinterpret_cast<char*>(m.data().data()),
                  static_cast<std::streamsize>(m.bytes()));
        blob.read(reinterpret_cast<char*>(v.data().data()),
                  static_cast<std::streamsize>(v.bytes()));
        ZIPFLM_CHECK(blob.good(),
                     "optimizer state truncated for parameter " + p->name);
        if (pos == live.end()) continue;
        ChunkRange keep{0, static_cast<std::size_t>(p->value.size())};
        std::size_t at = 0;
        if (table) {
          at = static_cast<std::size_t>(se->row_begin() * dim);
        } else if (std::find(dense.begin(), dense.end(), p) != dense.end()) {
          keep = Communicator::owned_chunk(
              keep.size(), static_cast<int>(pos - live.begin()), g);
        }
        if (at == 0 && keep.size() == static_cast<std::size_t>(m.size())) {
          opt.set_moments(*p, std::move(m), std::move(v));
          continue;
        }
        Tensor sm({static_cast<Index>(keep.size())});
        Tensor sv({static_cast<Index>(keep.size())});
        std::memcpy(sm.data().data(), m.data().data() + at + keep.begin,
                    sm.bytes());
        std::memcpy(sv.data().data(), v.data().data() + at + keep.begin,
                    sv.bytes());
        opt.set_moments(*p, std::move(sm), std::move(sv), keep.begin);
      }
    }
    if (r < ts.rank_rng.size()) {
      rank.model().dropout_rng().set_state(ts.rank_rng[r]);
    }
    if (LossScaler* scaler = rank.scaler(); scaler != nullptr) {
      scaler->restore(ts.scaler);
    }
  }
  global_step_ = meta.global_step;
  epochs_completed_ = meta.epoch;
}

void DistributedTrainer::save_state_file(const std::string& path) {
  save_file_atomically(path, [this](std::ostream& out) { save_state(out); });
}

void DistributedTrainer::restore_state_file(const std::string& path,
                                            bool allow_world_resize) {
  std::ifstream in(path, std::ios::binary);
  ZIPFLM_CHECK(in.is_open(), "cannot open checkpoint file: " + path);
  restore_state(in, allow_world_resize);
}

}  // namespace zipflm
