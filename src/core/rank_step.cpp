#include "zipflm/core/rank_step.hpp"

#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/support/phase_scope.hpp"
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
/// the step never touches the registry lock.
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

/// Sum of squares over this rank's owned gradient chunks.  Only
/// evaluated on the metrics interval — it reads every owned element.
double owned_grad_sq(std::span<const ParamRange> owned) {
  double sq = 0.0;
  for (const ParamRange& r : owned) {
    for (const float g :
         r.param->grad.data().subspan(r.begin, r.end - r.begin)) {
      sq += static_cast<double>(g) * static_cast<double>(g);
    }
  }
  return sq;
}

ExchangeOptions exchange_options(const TrainerOptions& o) {
  return {o.wire, o.compression_scale, o.wire_codec, o.index_codec};
}

}  // namespace

RankStep::RankStep(const TrainerOptions& options,
                   std::unique_ptr<LmModel> model, int rank, int world_size)
    : options_(options),
      model_(std::move(model)),
      pool_(std::make_unique<MemoryPool>(
          options.device.memory_bytes,
          options.device.name + "#" + std::to_string(rank))),
      dense_sync_(exchange_options(options)) {
  ZIPFLM_CHECK(model_ != nullptr, "model factory returned null");
  if (options_.use_adam) {
    Adam::Config cfg;
    cfg.lr = options_.base_lr;
    cfg.clip = options_.clip;
    optimizer_ = std::make_unique<Adam>(cfg);
  } else {
    optimizer_ = std::make_unique<Sgd>(options_.base_lr, options_.clip);
  }
  if (options_.dynamic_loss_scale) {
    // Per-rank scalers, not one shared: every rank applies the same
    // overflow vote, so the policies march in lockstep without
    // cross-rank state.
    scaler_ = LossScaler::dynamic(options_.initial_loss_scale);
  }

  const ExchangeOptions ex_opts = exchange_options(options_);
  if (options_.shard_embedding) {
    ZIPFLM_CHECK(options_.wire == WirePrecision::FP32,
                 "shard_embedding needs the FP32 wire (compression-scaled "
                 "FP16 is a replicated-path feature)");
    ZIPFLM_CHECK(options_.samples_per_rank == 0,
                 "shard_embedding covers the input table only (char LM); "
                 "sampled-softmax output tables stay replicated");
    const ShardedEmbedding* se = model_->sharded_input();
    ZIPFLM_CHECK(se != nullptr,
                 "shard_embedding is on but the model factory built a "
                 "replicated table (set CharLmConfig::shard_rank/world)");
    ZIPFLM_CHECK(se->shard_world() == world_size && se->shard_rank() == rank,
                 "model shard geometry does not match the comm world");
    auto sharded = std::make_unique<ShardedEmbeddingExchange>(
        model_->vocab(), model_->embed_dim(), ex_opts);
    sharded_ = sharded.get();
    exchange_ = std::move(sharded);
  } else {
    ZIPFLM_CHECK(model_->sharded_input() == nullptr,
                 "model factory built a sharded table but "
                 "TrainerOptions::shard_embedding is off");
    if (options_.unique_exchange) {
      exchange_ = std::make_unique<UniqueExchange>(ex_opts);
    } else {
      exchange_ = std::make_unique<DenseExchange>(ex_opts);
    }
  }

  if (options_.samples_per_rank > 0) {
    sampler_.emplace(model_->vocab(), options_.samples_per_rank,
                     options_.seed_policy, options_.seed);
  }
  dense_sync_.set_bucket_bytes(options_.overlap_bucket_bytes);
  if (options_.charge_static_memory) {
    // Parameters + gradients (+ optimizer moments for Adam) and the BPTT
    // activation window are resident for the whole run.
    const std::size_t params =
        model_->static_bytes() * (options_.use_adam ? 2 : 1);
    const std::size_t acts =
        static_cast<std::size_t>(options_.batch.tokens_per_rank()) *
        model_->activation_bytes_per_token();
    static_memory_ =
        pool_->allocate(params + acts, "model parameters + activations");
  }
}

RankStep::Session::Session(RankStep& rank, Communicator& comm)
    : rank_(rank),
      comm_(comm),
      engine_(comm, rank.options_.overlapped_exchange),
      interval_start_(std::chrono::steady_clock::now()) {
  if (rank_.options_.overlapped_exchange) {
    DenseGradSync& sync = rank_.dense_sync_;
    rank_.model_->set_backward_hook(
        [&sync](const Param& p) { sync.notify_ready(&p); });
  }
}

RankStep::Session::~Session() {
  // Unhook and disarm so neither the model nor the sync outlives this
  // session's engine — a fault may have unwound a step mid-flight.
  rank_.model_->set_backward_hook(nullptr);
  rank_.dense_sync_.disarm();
  if (rank_.options_.overlapped_exchange && comm_.rank() == 0) {
    // How much of the comm thread's busy time actually hid under
    // compute (1.0 = fully hidden, 0.0 = all of it waited in flush).
    auto& reg = obs::MetricsRegistry::global();
    reg.gauge("comm/overlap_efficiency")
        .set(AsyncCommEngine::overlap_efficiency(engine_.stats()));
    reg.gauge("comm/overlap_buckets")
        .set(static_cast<double>(rank_.dense_sync_.plan_buckets()));
  }
}

RankStep::Outcome RankStep::Session::step(const Batch& batch,
                                          std::uint64_t global_step) {
  obs::SpanScope step_span("train_step", "step",
                           static_cast<double>(global_step));
  RankStep& rs = rank_;
  LmModel& model = *rs.model_;
  const bool overlap = rs.options_.overlapped_exchange;
  model.zero_grad();
  if (rs.sharded_ != nullptr) {
    // Step-scoped row pull: fetch this batch's unique rows from their
    // owner shards before any forward reads the table.  Runs before the
    // dense sync arms, so the alltoallv rounds see an idle comm
    // schedule on every rank.
    rs.sharded_->pull(comm_, *model.sharded_input(), batch.inputs,
                      rs.pool_.get());
  }
  std::vector<Index> candidates;
  if (rs.sampler_.has_value()) {
    candidates = rs.sampler_->candidates(comm_.rank(), comm_.world_size(),
                                         global_step, batch.targets);
  }
  // Overlapped, backward's hook launches each bucket on the comm thread
  // as its last gradient completes; otherwise the engine is inline and
  // finish() runs every bucket after backward.
  const auto dense = model.dense_params();
  rs.dense_sync_.begin_step(comm_, engine_, dense);
  PendingIdGather pending;
  if (overlap) {
    // The token ids are known now — start the Θ(G·K) id allgather
    // under forward+backward.
    begin_id_gather(engine_, batch.inputs, pending, rs.options_.index_codec);
  }
  model.train_step_local(batch, candidates, res_);
  const LmStepResult& res = res_;

  Outcome out;
  out.loss = res.loss;
  const float inv_world = 1.0f / static_cast<float>(comm_.world_size());
  std::vector<Index> uids;
  Tensor urows;
  Param* out_emb = nullptr;
  std::vector<Index> ouids;
  Tensor ourows;
  {
    PhaseScope phase("exchange");

    // Dense parameters: drain the bucketed allreduces — in flight since
    // backward when overlapped, run here inline otherwise.  finish()
    // also flushes the eager id allgather riding the same engine.
    rs.dense_sync_.finish();

    // Input embedding: the exchange under test.
    rs.exchange_->exchange(comm_, res.input_ids, res.input_delta, uids, urows,
                           rs.pool_.get(), overlap ? &pending : nullptr);
    scale(urows, inv_world);
    out.unique_rows = uids.size();

    // Output embedding: only sparse under sampled softmax.  Exchanged
    // before any optimizer step runs — same values, same order, so the
    // reorder is bitwise neutral — because the overflow guard must see
    // every synchronized gradient before any of them touches a weight.
    if (!res.output_grad.ids.empty()) {
      out_emb = model.sampled_output_param();
      ZIPFLM_ASSERT(out_emb != nullptr,
                    "sparse output gradient without a sampled output param");
      rs.exchange_->exchange(comm_, res.output_grad.ids, res.output_grad.rows,
                             ouids, ourows, rs.pool_.get());
      scale(ourows, inv_world);
    }

    if (rs.scaler_.has_value()) {
      // Each rank scans what it will update — its owned dense chunks and
      // the rows it steps — and one max-vote makes the skip uniform.  A
      // NaN injected by any rank (e.g. a corrupted wire chunk) reaches
      // every chunk's sum, so every owner sees it anyway; the vote
      // covers the owner-only rows of a sharded table too.
      bool overflow = !all_finite(urows.data()) ||
                      (out_emb != nullptr && !all_finite(ourows.data()));
      for (const ParamRange& r : rs.dense_sync_.owned()) {
        if (overflow) break;
        overflow = !all_finite(
            r.param->grad.data().subspan(r.begin, r.end - r.begin));
      }
      if (comm_.world_size() > 1) {
        float vote = overflow ? 1.0f : 0.0f;
        comm_.allreduce_max(std::span<float>(&vote, 1));
        overflow = vote > 0.0f;
      }
      rs.scaler_->update(overflow);
      out.applied = !overflow;
    }
  }

  auto& tm = TrainMetrics::get();
  if (out.applied) {
    PhaseScope phase("optimizer");
    Optimizer& opt = *rs.optimizer_;
    if (rs.options_.use_adam) static_cast<Adam&>(opt).begin_step();
    // Owner update: step this rank's chunk of each dense parameter, then
    // allgather the values.  The allgather sits past the overflow guard:
    // a fault on it reaches the weights.
    opt.step(rs.dense_sync_.owned());
    rs.dense_sync_.gather_values(comm_);
    if (rs.sharded_ != nullptr) {
      // The push handed back this rank's OWNED rows under global ids;
      // the sparse update indexes the local shard.
      const Index first = model.sharded_input()->row_begin();
      for (Index& id : uids) id -= first;
    }
    opt.step_rows(model.input_embedding_param(), urows, uids);
    if (out_emb != nullptr) opt.step_rows(*out_emb, ourows, ouids);
  } else {
    tm.skipped_steps.add(1);
    ZIPFLM_TRACE_INSTANT("overflow_skip");
  }
  ++steps_;
  step_span.set_arg2("loss", out.loss);

  const std::uint64_t batch_tokens =
      static_cast<std::uint64_t>(rs.options_.batch.tokens_per_rank());
  tm.steps.add(1);
  tm.tokens.add(batch_tokens);
  const int every = rs.options_.metrics_every;
  const bool report =
      every > 0 && steps_ % static_cast<std::uint64_t>(every) == 0;
  float grad_sq = 0.0f;
  if (report) {
    // Every rank holds only its owned chunks of the averaged gradients:
    // one scalar allreduce sums their squares.
    grad_sq = static_cast<float>(owned_grad_sq(rs.dense_sync_.owned()));
    if (comm_.world_size() > 1) {
      comm_.allreduce_sum(std::span<float>(&grad_sq, 1));
    }
  }
  if (comm_.rank() == 0) {
    // One writer (dense rank 0), plain relaxed stores: the gauges
    // always hold the latest step's values.
    tm.loss.set(out.loss);
    if (rs.scaler_.has_value()) tm.loss_scale.set(rs.scaler_->scale());
    if (report) {
      tm.grad_norm.set(std::sqrt(static_cast<double>(grad_sq)));
      const auto now = std::chrono::steady_clock::now();
      const double secs =
          std::chrono::duration<double>(now - interval_start_).count();
      interval_start_ = now;
      if (secs > 0.0) {
        tm.tokens_per_s.set(
            static_cast<double>(every) *
            static_cast<double>(batch_tokens *
                                static_cast<unsigned>(comm_.world_size())) /
            secs);
      }
      if (rs.options_.metrics_sink) rs.options_.metrics_sink(global_step + 1);
    }
  }
  return out;
}

float RankStep::eval_loss(Communicator& comm, const Batch& batch) {
  if (sharded_ != nullptr) {
    sharded_->pull(comm, *model_->sharded_input(), batch.inputs);
  }
  return model_->eval_loss(batch);
}

}  // namespace zipflm
