#include "zipflm/core/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "zipflm/core/checkpoint.hpp"
#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/support/phase_scope.hpp"
#include "zipflm/support/serialize.hpp"
#include "zipflm/tensor/ops.hpp"

namespace zipflm {

namespace {

bool all_finite(std::span<const float> data) {
  for (const float v : data) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// Cached "train/..." registry handles (same pattern as CommMetrics in
/// thread_comm.cpp): looked up once, then relaxed atomic updates only —
/// the step loop never touches the registry lock.
struct TrainMetrics {
  obs::Counter& steps;
  obs::Counter& skipped_steps;
  obs::Counter& tokens;
  obs::Gauge& loss;
  obs::Gauge& loss_scale;
  obs::Gauge& grad_norm;
  obs::Gauge& tokens_per_s;

  static TrainMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static TrainMetrics m{
        r.counter("train/steps"),      r.counter("train/skipped_steps"),
        r.counter("train/tokens"),     r.gauge("train/loss"),
        r.gauge("train/loss_scale"),   r.gauge("train/grad_norm"),
        r.gauge("train/tokens_per_s"),
    };
    return m;
  }
};

/// L2 norm over the dense (post-allreduce) gradients.  Only evaluated on
/// the metrics interval — it reads every dense gradient element.
double dense_grad_norm(const std::vector<Param*>& dense) {
  double sq = 0.0;
  for (const Param* p : dense) {
    for (const float g : p->grad.data()) {
      sq += static_cast<double>(g) * static_cast<double>(g);
    }
  }
  return std::sqrt(sq);
}

}  // namespace

DistributedTrainer::DistributedTrainer(CommWorld& world,
                                       const ModelFactory& factory,
                                       TrainerOptions options)
    : world_(world), options_(options) {
  ExchangeOptions ex_opts;
  ex_opts.precision = options_.wire;
  ex_opts.compression_scale = options_.compression_scale;
  ex_opts.codec = options_.wire_codec;
  ex_opts.index_codec = options_.index_codec;
  if (!options_.shard_embedding) {
    if (options_.unique_exchange) {
      exchange_ = std::make_unique<UniqueExchange>(ex_opts);
    } else {
      exchange_ = std::make_unique<DenseExchange>(ex_opts);
    }
  }  // sharded exchange needs the model geometry; built after the loop.

  const int g = world.total_ranks();
  models_.reserve(static_cast<std::size_t>(g));
  optimizers_.reserve(static_cast<std::size_t>(g));
  pools_.reserve(static_cast<std::size_t>(g));
  for (int r = 0; r < g; ++r) {
    models_.push_back(factory(r));
    ZIPFLM_CHECK(models_.back() != nullptr, "model factory returned null");
    if (options_.use_adam) {
      Adam::Config cfg;
      cfg.lr = options_.base_lr;
      cfg.clip = options_.clip;
      optimizers_.push_back(std::make_unique<Adam>(cfg));
    } else {
      optimizers_.push_back(
          std::make_unique<Sgd>(options_.base_lr, options_.clip));
    }
    pools_.push_back(std::make_unique<MemoryPool>(
        options_.device.memory_bytes,
        options_.device.name + "#" + std::to_string(r)));
    if (options_.dynamic_loss_scale) {
      // Per-rank scalers, not one shared: every rank sees the same
      // post-collective gradients, so the policies march in lockstep
      // without cross-thread state.
      scalers_.push_back(LossScaler::dynamic(options_.initial_loss_scale));
    }
  }

  if (options_.shard_embedding) {
    ZIPFLM_CHECK(options_.wire == WirePrecision::FP32,
                 "shard_embedding needs the FP32 wire (compression-scaled "
                 "FP16 is a replicated-path feature)");
    ZIPFLM_CHECK(!options_.dynamic_loss_scale,
                 "shard_embedding returns per-owner gradient rows, so the "
                 "overflow scan would not be uniform across ranks");
    ZIPFLM_CHECK(options_.samples_per_rank == 0,
                 "shard_embedding covers the input table only (char LM); "
                 "sampled-softmax output tables stay replicated");
    for (int r = 0; r < g; ++r) {
      const ShardedEmbedding* se =
          models_[static_cast<std::size_t>(r)]->sharded_input();
      ZIPFLM_CHECK(se != nullptr,
                   "shard_embedding is on but the model factory built a "
                   "replicated table (set CharLmConfig::shard_rank/world)");
      ZIPFLM_CHECK(se->shard_world() == g && se->shard_rank() == r,
                   "model shard geometry does not match the comm world");
    }
    auto sharded = std::make_unique<ShardedEmbeddingExchange>(
        models_.front()->vocab(), models_.front()->embed_dim(), ex_opts);
    sharded_exchange_ = sharded.get();
    exchange_ = std::move(sharded);
  } else {
    for (int r = 0; r < g; ++r) {
      ZIPFLM_CHECK(models_[static_cast<std::size_t>(r)]->sharded_input() ==
                       nullptr,
                   "model factory built a sharded table but "
                   "TrainerOptions::shard_embedding is off");
    }
  }

  if (options_.samples_per_rank > 0) {
    sampler_.emplace(models_.front()->vocab(), options_.samples_per_rank,
                     options_.seed_policy, options_.seed);
  }

  // One dense sync per global rank: each owns the FP16 wire buffer its
  // rank (or that rank's comm thread) reduces through, so rank threads
  // never share one.
  dense_syncs_.reserve(static_cast<std::size_t>(g));
  for (int r = 0; r < g; ++r) {
    dense_syncs_.emplace_back(ex_opts);
    dense_syncs_.back().set_bucket_bytes(options_.overlap_bucket_bytes);
  }
  if (options_.charge_static_memory) {
    // Parameters + gradients (+ optimizer moments for Adam) and the BPTT
    // activation window are resident for the whole run.
    for (int r = 0; r < g; ++r) {
      LmModel& m = *models_[static_cast<std::size_t>(r)];
      const std::size_t params =
          m.static_bytes() * (options_.use_adam ? 2 : 1);
      const std::size_t acts =
          static_cast<std::size_t>(options_.batch.tokens_per_rank()) *
          m.activation_bytes_per_token();
      static_memory_.push_back(pools_[static_cast<std::size_t>(r)]->allocate(
          params + acts, "model parameters + activations"));
    }
  }
}

LmModel& DistributedTrainer::model(int rank) {
  ZIPFLM_CHECK(rank >= 0 && rank < world_.total_ranks(), "rank out of range");
  return *models_[static_cast<std::size_t>(rank)];
}

const MemoryPool& DistributedTrainer::pool(int rank) const {
  ZIPFLM_CHECK(rank >= 0 && rank < world_.total_ranks(), "rank out of range");
  return *pools_[static_cast<std::size_t>(rank)];
}

bool DistributedTrainer::sync_step(Communicator& comm, LmModel& model,
                                   Optimizer& opt, MemoryPool& pool,
                                   LossScaler* scaler,
                                   const LmStepResult& res,
                                   std::uint64_t* unique_out,
                                   DenseGradSync& dense_sync,
                                   const PendingIdGather* pending) {
  const float inv_world = 1.0f / static_cast<float>(comm.world_size());
  const auto dense = model.dense_params();

  std::vector<Index> uids;
  Tensor urows;
  Param* out_emb = nullptr;
  std::vector<Index> ouids;
  Tensor ourows;
  {
    PhaseScope phase("exchange");

    // Dense parameters: either drain the bucketed allreduces that have
    // been in flight since backward (overlapped path), or run the
    // classic synchronous per-parameter ALLREDUCE sweep.  finish() also
    // flushes the eager id allgather riding the same engine.
    if (options_.overlapped_exchange) {
      dense_sync.finish();
    } else {
      dense_sync.sync(comm, dense);
    }

    // Input embedding: the exchange under test.
    exchange_->exchange(comm, res.input_ids, res.input_delta, uids, urows,
                        &pool, pending);
    scale(urows, inv_world);
    if (unique_out != nullptr) *unique_out = uids.size();

    // Output embedding: only sparse under sampled softmax.  Exchanged
    // before any optimizer step runs — same values, same order, so the
    // reorder is bitwise neutral — because the overflow guard must see
    // every synchronized gradient before any of them touches a weight.
    if (!res.output_grad.ids.empty()) {
      out_emb = model.sampled_output_param();
      ZIPFLM_ASSERT(out_emb != nullptr,
                    "sparse output gradient without a sampled output param");
      exchange_->exchange(comm, res.output_grad.ids, res.output_grad.rows,
                          ouids, ourows, &pool);
      scale(ourows, inv_world);
    }

    if (scaler != nullptr) {
      // Collectives give every rank the same reduced values, so a NaN
      // injected by any one rank (e.g. a corrupted wire chunk) shows up
      // identically on all of them: the skip decision is uniform without
      // an extra vote collective, and the replicas stay in lockstep.
      bool overflow = !all_finite(urows.data()) ||
                      (out_emb != nullptr && !all_finite(ourows.data()));
      for (const Param* p : dense) {
        if (overflow) break;
        overflow = !all_finite(p->grad.data());
      }
      scaler->update(overflow);
      if (overflow) return false;
    }
  }

  PhaseScope phase("optimizer");
  if (options_.use_adam) static_cast<Adam&>(opt).begin_step();
  opt.step(dense);
  if (const ShardedEmbedding* se = model.sharded_input(); se != nullptr) {
    // The push handed back this rank's OWNED rows under global ids;
    // the sparse update indexes the local shard.
    for (Index& id : uids) id -= se->row_begin();
  }
  opt.step_rows(model.input_embedding_param(), urows, uids);
  if (out_emb != nullptr) opt.step_rows(*out_emb, ourows, ouids);
  return true;
}

EpochStats DistributedTrainer::run_epoch(std::span<const Index> train_ids,
                                         std::span<const Index> valid_ids,
                                         int epoch) {
  obs::SpanScope epoch_span("epoch", "epoch", static_cast<double>(epoch));
  const int g = world_.world_size();
  const float lr = scaled_learning_rate(
      options_.base_lr, world_.topology().nodes, epoch, options_.lr_decay);
  for (auto& opt : optimizers_) opt->set_learning_rate(lr);

  world_.reset_ledgers();
  for (auto& pool : pools_) pool->reset_peak();

  std::vector<double> rank_loss(static_cast<std::size_t>(g), 0.0);
  std::vector<std::uint64_t> rank_steps(static_cast<std::size_t>(g), 0);
  std::vector<std::uint64_t> rank_skipped(static_cast<std::size_t>(g), 0);
  std::vector<std::uint64_t> rank_unique(static_cast<std::size_t>(g), 0);
  const std::uint64_t step_base = global_step_;

  world_.run([&](Communicator& comm) {
    // Dense rank dr shards the data over the live world; global rank r
    // owns this rank's replica, optimizer, and pool — the two diverge
    // once a rank has been retired by a fault.
    const int dr = comm.rank();
    const int r = world_.live_ranks()[static_cast<std::size_t>(dr)];
    LmModel& model = *models_[static_cast<std::size_t>(r)];
    Optimizer& opt = *optimizers_[static_cast<std::size_t>(r)];
    MemoryPool& pool = *pools_[static_cast<std::size_t>(r)];
    LossScaler* scaler =
        scalers_.empty() ? nullptr : &scalers_[static_cast<std::size_t>(r)];

    // Overlapped exchange: a per-rank comm thread plus this rank's
    // bucketed sync.  The engine runs jobs inline when overlap is off.
    AsyncCommEngine engine(comm, options_.overlapped_exchange);
    DenseGradSync& dsync = dense_syncs_[static_cast<std::size_t>(r)];
    const bool overlap = options_.overlapped_exchange;
    if (overlap) {
      model.set_backward_hook(
          [&dsync](const Param& p) { dsync.notify_ready(&p); });
    }
    // Unhook + disarm on every exit (including a fault unwinding the
    // epoch) so the model and sync never outlive this stack's engine.
    struct OverlapGuard {
      LmModel& model;
      DenseGradSync& dsync;
      ~OverlapGuard() {
        model.set_backward_hook(nullptr);
        dsync.disarm();
      }
    } overlap_guard{model, dsync};

    BatchIterator it(train_ids, options_.batch, dr, g);
    Batch batch;
    LmStepResult res;
    std::uint64_t local_step = 0;
    auto& tm = TrainMetrics::get();
    const std::uint64_t batch_tokens =
        static_cast<std::uint64_t>(options_.batch.tokens_per_rank());
    auto interval_start = std::chrono::steady_clock::now();
    while (it.next(batch)) {
      obs::SpanScope step_span("train_step", "step",
                               static_cast<double>(step_base + local_step));
      model.zero_grad();
      if (sharded_exchange_ != nullptr) {
        // Step-scoped row pull: fetch this batch's unique rows from
        // their owner shards before any forward reads the table.  Runs
        // before the overlap engine arms, so the alltoallv rounds see
        // an idle comm schedule on every rank.
        sharded_exchange_->pull(comm, *model.sharded_input(), batch.inputs,
                                &pool);
      }
      std::vector<Index> candidates;
      if (sampler_.has_value()) {
        candidates = sampler_->candidates(dr, g, step_base + local_step,
                                          batch.targets);
      }
      PendingIdGather pending;
      if (overlap) {
        dsync.begin_step(comm, engine, model.dense_params());
        // The token ids are known now — start the Θ(G·K) id allgather
        // under forward+backward.
        begin_id_gather(engine, batch.inputs, pending, options_.index_codec);
      }
      model.train_step_local(batch, candidates, res);
      std::uint64_t ug = 0;
      if (!sync_step(comm, model, opt, pool, scaler, res, &ug, dsync,
                     overlap ? &pending : nullptr)) {
        ++rank_skipped[static_cast<std::size_t>(dr)];
        tm.skipped_steps.add(1);
        ZIPFLM_TRACE_INSTANT("overflow_skip");
      }
      rank_loss[static_cast<std::size_t>(dr)] += res.loss;
      rank_unique[static_cast<std::size_t>(dr)] += ug;
      ++local_step;
      step_span.set_arg2("loss", res.loss);

      tm.steps.add(1);
      tm.tokens.add(batch_tokens);
      if (dr == 0) {
        // One writer (dense rank 0), plain relaxed stores: the gauges
        // always hold the latest step's values.
        tm.loss.set(res.loss);
        if (scaler != nullptr) tm.loss_scale.set(scaler->scale());
        if (options_.metrics_every > 0 &&
            local_step % static_cast<std::uint64_t>(options_.metrics_every) ==
                0) {
          tm.grad_norm.set(dense_grad_norm(model.dense_params()));
          const auto now = std::chrono::steady_clock::now();
          const double secs =
              std::chrono::duration<double>(now - interval_start).count();
          interval_start = now;
          if (secs > 0.0) {
            tm.tokens_per_s.set(
                static_cast<double>(options_.metrics_every) *
                static_cast<double>(batch_tokens * static_cast<unsigned>(g)) /
                secs);
          }
          if (options_.metrics_sink) {
            options_.metrics_sink(step_base + local_step);
          }
        }
      }
    }
    rank_steps[static_cast<std::size_t>(dr)] = local_step;
    if (overlap && dr == 0) {
      // How much of the comm thread's busy time actually hid under
      // compute (1.0 = fully hidden, 0.0 = all of it waited in flush).
      auto& reg = obs::MetricsRegistry::global();
      reg.gauge("comm/overlap_efficiency")
          .set(AsyncCommEngine::overlap_efficiency(engine.stats()));
      reg.gauge("comm/overlap_buckets")
          .set(static_cast<double>(dsync.plan_buckets()));
    }
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
  for (const auto& pool : pools_) {
    stats.peak_memory_bytes =
        std::max<std::uint64_t>(stats.peak_memory_bytes, pool->peak());
  }
  const double flops_per_step =
      static_cast<double>(options_.batch.tokens_per_rank()) *
      models_.front()->flops_per_token();
  stats.sim_compute_seconds =
      static_cast<double>(stats.steps) *
      options_.device.seconds_for_flops(flops_per_step,
                                        options_.compute_efficiency);
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
    const int dr = comm.rank();
    const int r = world_.live_ranks()[static_cast<std::size_t>(dr)];
    LmModel& model = *models_[static_cast<std::size_t>(r)];
    BatchIterator it(valid_ids, options_.batch, dr, g);
    Batch batch;
    while (it.next(batch)) {
      if (sharded_exchange_ != nullptr) {
        sharded_exchange_->pull(comm, *model.sharded_input(), batch.inputs);
      }
      rank_loss[static_cast<std::size_t>(dr)] += model.eval_loss(batch);
      ++rank_batches[static_cast<std::size_t>(dr)];
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
  LmModel& ref_model = *models_[static_cast<std::size_t>(live.front())];
  auto reference = ref_model.all_params();
  const Param* ref_shard = ref_model.sharded_input() != nullptr
                               ? &ref_model.sharded_input()->param()
                               : nullptr;
  for (std::size_t i = 1; i < live.size(); ++i) {
    LmModel& m = *models_[static_cast<std::size_t>(live[i])];
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
  // Replicas are bit-identical (replicas_in_sync is a tested invariant),
  // so one rank's parameters and optimizer moments stand for all; the
  // dropout streams are saved per rank because each rank draws its own.
  const int r0 = world_.live_ranks().front();
  LmModel& reference = *models_[static_cast<std::size_t>(r0)];

  TrainState ts;
  ts.present = true;
  if (!scalers_.empty()) {
    ts.has_scaler = true;
    ts.scaler = scalers_[static_cast<std::size_t>(r0)].state();
  }
  ts.rank_rng.reserve(models_.size());
  for (const auto& m : models_) {
    ts.rank_rng.push_back(m->dropout_rng().state());
  }
  const CheckpointMeta meta{global_step_, epochs_completed_};

  if (sharded_exchange_ == nullptr) {
    std::ostringstream blob(std::ios::binary);
    const auto params = reference.all_params();
    optimizers_[static_cast<std::size_t>(r0)]->save_state(blob, params);
    ts.optimizer_blob = blob.str();
    save_checkpoint(out, reference, meta, &ts);
    return;
  }

  // Sharded table: the on-disk layout is the CANONICAL replicated one —
  // the full V x D table (and moment tensors) under the replicated
  // parameter name, assembled from every rank's owned slice.  A
  // checkpoint saved at any world size therefore restores into any
  // other (re-sharding is just re-slicing on load), and into a
  // replicated model unchanged.
  const Index vocab = reference.vocab();
  const Index dim = reference.embed_dim();
  Param full("embedding", Tensor({vocab, dim}));
  for (const auto& m : models_) {
    const ShardedEmbedding* se = m->sharded_input();
    ZIPFLM_ASSERT(se != nullptr, "sharded trainer holds a replicated model");
    std::memcpy(full.value.data().data() +
                    se->row_begin() * dim,
                se->param().value.data().data(),
                se->param().value.bytes());
  }
  const auto params = checkpoint_params(reference, full);

  if (options_.use_adam) {
    // Synthesize the canonical Adam blob by hand (save_state format:
    // step count, then per parameter a presence byte + raw m + raw v):
    // dense moments come from the reference optimizer, the table's from
    // stitching every rank's moment slice — zeros where a shard has
    // never stepped, matching Adam's lazily-zero-initialized moments.
    std::ostringstream blob(std::ios::binary);
    const Adam& ref_opt =
        static_cast<const Adam&>(*optimizers_[static_cast<std::size_t>(r0)]);
    write_pod<std::int64_t>(blob, ref_opt.step_count());
    for (const Param* p : params) {
      if (p == &full) {
        bool present = false;
        for (std::size_t r = 0; r < models_.size(); ++r) {
          const auto& opt = static_cast<const Adam&>(*optimizers_[r]);
          present = present ||
                    opt.has_moments(models_[r]->sharded_input()->param());
        }
        write_pod<std::uint8_t>(blob, present ? 1 : 0);
        if (!present) continue;
        Tensor fm({vocab, dim});
        Tensor fv({vocab, dim});
        for (std::size_t r = 0; r < models_.size(); ++r) {
          const auto& opt = static_cast<const Adam&>(*optimizers_[r]);
          const ShardedEmbedding* se = models_[r]->sharded_input();
          const Param& sp = se->param();
          if (!opt.has_moments(sp)) continue;
          std::memcpy(fm.data().data() + se->row_begin() * dim,
                      opt.moment_m(sp).data().data(),
                      opt.moment_m(sp).bytes());
          std::memcpy(fv.data().data() + se->row_begin() * dim,
                      opt.moment_v(sp).data().data(),
                      opt.moment_v(sp).bytes());
        }
        blob.write(reinterpret_cast<const char*>(fm.data().data()),
                   static_cast<std::streamsize>(fm.bytes()));
        blob.write(reinterpret_cast<const char*>(fv.data().data()),
                   static_cast<std::streamsize>(fv.bytes()));
        continue;
      }
      const bool present = ref_opt.has_moments(*p);
      write_pod<std::uint8_t>(blob, present ? 1 : 0);
      if (!present) continue;
      blob.write(
          reinterpret_cast<const char*>(ref_opt.moment_m(*p).data().data()),
          static_cast<std::streamsize>(ref_opt.moment_m(*p).bytes()));
      blob.write(
          reinterpret_cast<const char*>(ref_opt.moment_v(*p).data().data()),
          static_cast<std::streamsize>(ref_opt.moment_v(*p).bytes()));
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
  const Index vocab = models_.front()->vocab();
  const Index dim = models_.front()->embed_dim();
  for (std::size_t r = 0; r < models_.size(); ++r) {
    std::istringstream stream(raw, std::ios::binary);
    if (sharded_exchange_ == nullptr) {
      meta = load_checkpoint(stream, *models_[r], r == 0 ? &ts : nullptr);
      continue;
    }
    // Sharded: read the canonical full table into a scratch parameter,
    // then keep only this replica's owned slice.
    ShardedEmbedding* se = models_[r]->sharded_input();
    ZIPFLM_ASSERT(se != nullptr, "sharded trainer holds a replicated model");
    Param full("embedding", Tensor({vocab, dim}));
    const auto params = checkpoint_params(*models_[r], full);
    meta = load_checkpoint(stream, std::span<Param* const>(params),
                           r == 0 ? &ts : nullptr);
    std::memcpy(se->param().value.data().data(),
                full.value.data().data() + se->row_begin() * dim,
                se->param().value.bytes());
    se->clear_cache();
  }
  ZIPFLM_CHECK(ts.present,
               "checkpoint carries no training state; it can initialize "
               "weights but not resume a run exactly");
  ZIPFLM_CHECK(allow_world_resize || ts.rank_rng.size() == models_.size(),
               "checkpoint rank count does not match this trainer (saved " +
                   std::to_string(ts.rank_rng.size()) + ", have " +
                   std::to_string(models_.size()) +
                   "); pass allow_world_resize to re-shard on load");
  ZIPFLM_CHECK(scalers_.empty() || ts.has_scaler,
               "checkpoint has no loss-scaler state but dynamic scaling "
               "is enabled");

  for (std::size_t r = 0; r < models_.size(); ++r) {
    if (sharded_exchange_ == nullptr || !options_.use_adam) {
      // SGD is stateless, so the blob is empty either way; replicated
      // Adam parses it against the live parameter list directly.
      std::istringstream blob(ts.optimizer_blob, std::ios::binary);
      const auto params = models_[r]->all_params();
      optimizers_[r]->load_state(blob, params);
    } else {
      // Sharded Adam: parse the canonical blob by hand, slicing the
      // table's moment tensors down to this replica's owned rows.
      std::istringstream blob(ts.optimizer_blob, std::ios::binary);
      ShardedEmbedding* se = models_[r]->sharded_input();
      Param full("embedding", Tensor({vocab, dim}));
      const auto params = checkpoint_params(*models_[r], full);
      auto& opt = static_cast<Adam&>(*optimizers_[r]);
      opt.clear_moments();
      opt.set_step_count(read_pod<std::int64_t>(blob));
      for (Param* p : params) {
        if (read_pod<std::uint8_t>(blob) == 0) continue;
        Tensor m(p->value.shape());
        Tensor v(p->value.shape());
        blob.read(reinterpret_cast<char*>(m.data().data()),
                  static_cast<std::streamsize>(m.bytes()));
        blob.read(reinterpret_cast<char*>(v.data().data()),
                  static_cast<std::streamsize>(v.bytes()));
        ZIPFLM_CHECK(blob.good(),
                     "optimizer state truncated for parameter " + p->name);
        if (p == &full) {
          Tensor sm({se->owned_rows(), dim});
          Tensor sv({se->owned_rows(), dim});
          std::memcpy(sm.data().data(), m.data().data() + se->row_begin() * dim,
                      sm.bytes());
          std::memcpy(sv.data().data(), v.data().data() + se->row_begin() * dim,
                      sv.bytes());
          opt.set_moments(se->param(), std::move(sm), std::move(sv));
        } else {
          opt.set_moments(*p, std::move(m), std::move(v));
        }
      }
    }
    if (r < ts.rank_rng.size()) {
      models_[r]->dropout_rng().set_state(ts.rank_rng[r]);
    }
    if (!scalers_.empty()) scalers_[r].restore(ts.scaler);
  }
  global_step_ = meta.global_step;
  epochs_completed_ = meta.epoch;
}

void DistributedTrainer::save_state_file(const std::string& path) {
  // Mirror save_checkpoint_file's atomicity: temp file, flush, rename.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    ZIPFLM_CHECK(out.is_open(), "cannot open checkpoint file: " + tmp);
    save_state(out);
    out.flush();
    ZIPFLM_CHECK(out.good(), "checkpoint flush failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    ZIPFLM_CHECK(false, "cannot move checkpoint into place: " + path);
  }
}

void DistributedTrainer::restore_state_file(const std::string& path,
                                            bool allow_world_resize) {
  std::ifstream in(path, std::ios::binary);
  ZIPFLM_CHECK(in.is_open(), "cannot open checkpoint file: " + path);
  restore_state(in, allow_world_resize);
}

}  // namespace zipflm
