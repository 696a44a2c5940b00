// Training workloads: DistributedTrainer::run_epoch over a CommWorld,
// fed with Zipf token streams from zipflm::data.
//
// The benchmark holds no step logic.  Its only hook into the loop is
// ProbeModel (probe_model.hpp), which forwards every call to the real
// model and records each local step's loss, start and duration; the
// output checks and the step-latency metrics come from it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "probe_model.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/trainer.hpp"
#include "zipflm/data/corpus.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/support/error.hpp"

namespace perfbench {
namespace {

using namespace zipflm;

/// tail_ms is the median over measured epochs of each epoch's step
/// period at this quantile.
constexpr double kEpochTailQuantile = 0.9;

struct TrainSpec {
  bool word = false;
  int ranks = 1;
  BatchSpec batch;
  CharLmConfig char_cfg;
  WordLmConfig word_cfg;
  TrainerOptions options;
  CorpusSpec corpus;
  std::size_t warmup_steps = 3;
  /// Steps of every measured epoch: fixed, so an epoch's tail quantile
  /// never depends on a pace estimate.  About 3-4 s of steps on the
  /// 4-core reference host, so a 20 s run measures 5-7 epochs.
  std::size_t epoch_steps = 8;
};

/// The workload table (see perfbench/README.md for the reasons).
TrainSpec train_spec(const Args& args) {
  TrainSpec s;
  const std::string& name = args.workload;
  if (name == "train_char_1rank" || name == "train_char_4rank") {
    s.ranks = name == "train_char_1rank" ? 1 : 4;
    s.epoch_steps = s.ranks == 1 ? 20 : 6;
    s.batch = {8, 8};
    s.char_cfg.hidden_dim = 1024;
    s.corpus = CorpusSpec::one_billion_char();
    s.options.use_adam = true;
    s.options.base_lr = 1e-3f;
    s.options.clip = 1.0f;
    if (s.ranks > 1) {
      s.options.wire = WirePrecision::FP16;
      s.options.overlapped_exchange = true;
    }
    if (args.adam_lr > 0.0) s.options.base_lr = static_cast<float>(args.adam_lr);
    if (args.smoke) {
      s.char_cfg.embed_dim = 32;
      s.char_cfg.hidden_dim = 64;
      s.char_cfg.depth = 2;
      s.epoch_steps = 4;
    }
  } else if (name == "train_word_4rank") {
    s.word = true;
    s.ranks = 4;
    s.batch = {32, 20};
    s.corpus = CorpusSpec::one_billion_word();
    s.word_cfg.vocab = 100'000;
    s.word_cfg.embed_dim = 256;
    s.word_cfg.hidden_dim = 1024;
    s.word_cfg.proj_dim = 256;
    s.options.base_lr = 1.0f;
    s.options.samples_per_rank = 1024;
    s.options.seed_policy = SeedPolicy::ZipfFreq;
    s.options.wire = WirePrecision::FP16;
    s.options.clip = 1.0f;
    if (args.smoke) {
      s.batch = {8, 8};
      s.word_cfg.vocab = 2'000;
      s.word_cfg.embed_dim = 32;
      s.word_cfg.hidden_dim = 64;
      s.word_cfg.proj_dim = 32;
      s.options.samples_per_rank = 128;
      s.epoch_steps = 4;
    }
  } else {
    throw ConfigError("unknown training workload " + name);
  }
  s.options.seed = args.seed;
  return s;
}

/// Token ids for `steps` full steps of `spec` across every rank, drawn
/// from the corpus stream.  Word ids past the model vocabulary fold
/// into the last id, the usual <unk> bucket.
std::vector<Index> take_ids(TokenStream& stream, const TrainSpec& spec,
                            std::size_t steps) {
  // BatchIterator needs one trailing target per substream.
  const auto per_rank = static_cast<std::size_t>(
      spec.batch.batch_size *
      (static_cast<std::int64_t>(steps) * spec.batch.seq_len + 1));
  obs::SpanScope span("data.take", "tokens",
                      static_cast<double>(per_rank * spec.ranks));
  std::vector<Index> ids;
  stream.take(per_rank * static_cast<std::size_t>(spec.ranks), ids);
  if (spec.word) {
    const Index last = spec.word_cfg.vocab - 1;
    for (Index& id : ids) id = std::min(id, last);
  }
  return ids;
}

struct TrainStack {
  std::unique_ptr<CommWorld> world;
  std::unique_ptr<DistributedTrainer> trainer;
};

std::unique_ptr<TrainStack> build_stack(const TrainSpec& spec) {
  auto stack = std::make_unique<TrainStack>();
  stack->world = std::make_unique<CommWorld>(spec.ranks);
  TrainerOptions options = spec.options;
  options.batch = spec.batch;
  const DistributedTrainer::ModelFactory factory =
      [&spec](int) -> std::unique_ptr<LmModel> {
    if (spec.word) {
      return std::make_unique<ProbeModel>(
          std::make_unique<WordLm>(spec.word_cfg));
    }
    return std::make_unique<ProbeModel>(std::make_unique<CharLm>(spec.char_cfg));
  };
  stack->trainer =
      std::make_unique<DistributedTrainer>(*stack->world, factory, options);
  return stack;
}

ProbeModel& probe(TrainStack& stack, int rank) {
  return static_cast<ProbeModel&>(stack.trainer->model(rank));
}

/// What one epoch did, read off rank 0's probe and the epoch stats.
struct EpochReport {
  EpochStats stats;
  double seconds = 0.0;
  std::vector<TrainStepRecord> steps;  ///< rank 0's steps of this epoch
  double end = 0.0;               ///< now_seconds() when run_epoch returned
  double forward_seconds = 0.0;   ///< phase gauges, summed over ranks
  double backward_seconds = 0.0;
  double exchange_seconds = 0.0;
  double optimizer_seconds = 0.0;
};

double phase_gauge(const char* name) {
  return obs::MetricsRegistry::global()
      .gauge(std::string("phase/") + name + "_seconds")
      .value();
}

EpochReport run_epoch(TrainStack& stack, const std::vector<Index>& ids,
                      int epoch) {
  obs::MetricsRegistry::global().reset("phase/");
  const std::size_t first = probe(stack, 0).train_steps().size();
  EpochReport rep;
  const double start = now_seconds();
  {
    obs::SpanScope span("core.run_epoch", "epoch", epoch);
    rep.stats = stack.trainer->run_epoch(ids, {}, epoch);
  }
  rep.end = now_seconds();
  rep.seconds = rep.end - start;
  const auto& all = probe(stack, 0).train_steps();
  rep.steps.assign(all.begin() + static_cast<std::ptrdiff_t>(first), all.end());
  rep.forward_seconds = phase_gauge("forward");
  rep.backward_seconds = phase_gauge("backward");
  rep.exchange_seconds = phase_gauge("exchange");
  rep.optimizer_seconds = phase_gauge("optimizer");
  return rep;
}

/// Rank 0's step periods: start to next start, the last one to the end
/// of the epoch.  This is the step latency a caller of the loop sees.
std::vector<double> step_periods(const EpochReport& rep) {
  std::vector<double> periods;
  for (std::size_t i = 0; i < rep.steps.size(); ++i) {
    const double next =
        i + 1 < rep.steps.size() ? rep.steps[i + 1].start : rep.end;
    periods.push_back(next - rep.steps[i].start);
  }
  return periods;
}

double tokens_per_second(const TrainSpec& spec, const EpochReport& rep) {
  return static_cast<double>(rep.stats.steps) *
         static_cast<double>(spec.batch.tokens_per_rank() * spec.ranks) /
         rep.seconds;
}

/// Output checks: every step's loss finite on every rank, training
/// moved the loss down, replicas bit-identical.  Prints the digest of
/// every rank's loss stream.
void check_training(TrainStack& stack, const TrainSpec& spec,
                    const std::vector<TrainStepRecord>& measured,
                    Result& result) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::uint64_t non_finite = 0;
  std::uint64_t steps = 0;
  for (int r = 0; r < spec.ranks; ++r) {
    for (const TrainStepRecord& s : probe(stack, r).train_steps()) {
      digest = fnv1a(&s.loss, sizeof(s.loss), digest);
      if (!std::isfinite(s.loss)) ++non_finite;
      ++steps;
    }
  }
  result.attempted = steps;
  result.failed = non_finite;
  char line[160];
  std::snprintf(line, sizeof(line),
                "loss digest %016llx over %llu rank-steps",
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(steps));
  result.note(line);
  if (non_finite > 0) {
    result.fail_check(std::to_string(non_finite) + " steps had a non-finite loss");
  }

  // The run's first loss is the untrained model's; the median of the
  // last quarter of the measured steps must sit below it (one batch,
  // or a mean that one loss spike can drag, is too noisy).
  const auto& all = probe(stack, 0).train_steps();
  const std::size_t tail = std::max<std::size_t>(4, measured.size() / 4);
  std::vector<double> last;
  for (std::size_t i = measured.size() - tail; i < measured.size(); ++i) {
    last.push_back(measured[i].loss);
  }
  const double last_median = median(last);
  std::snprintf(line, sizeof(line),
                "loss first step %.4f, median of last %zu measured steps %.4f",
                static_cast<double>(all.front().loss), tail, last_median);
  result.note(line);
  if (!(last_median < static_cast<double>(all.front().loss))) {
    result.fail_check("loss did not go down: " + std::string(line));
  }
  if (!stack.trainer->replicas_in_sync()) {
    result.fail_check("replicas are not bit-identical after training");
  }
}

/// tok_s is the median of the measured epochs' rates, each epoch's
/// tokens over its wall time; p50_ms pools every measured step period.
/// tail_ms is the median of each epoch's p90: a host burst of a few
/// seconds slows every step of one epoch, which would own the top tenth
/// of a pooled sample but moves only one of the per-epoch values.
void add_end_to_end(const TrainSpec& spec,
                    const std::vector<EpochReport>& epochs, double setup_s,
                    Result& result) {
  std::vector<double> rates;
  std::vector<double> periods;
  std::vector<double> tails;
  for (const EpochReport& rep : epochs) {
    rates.push_back(tokens_per_second(spec, rep));
    const std::vector<double> p = step_periods(rep);
    tails.push_back(quantile(p, kEpochTailQuantile));
    periods.insert(periods.end(), p.begin(), p.end());
  }
  result.set("tok_s", median(rates));
  result.set("p50_ms", 1e3 * median(periods));
  result.set("tail_ms", 1e3 * median(tails));
  result.set("setup_s", setup_s);
  result.set("peak_rss_mb", peak_rss_mb());
  char line[200];
  std::snprintf(line, sizeof(line),
                "%zu measured epochs of %zu steps (%zu step periods); tail_ms "
                "is the median of each epoch's p%.0f",
                epochs.size(), spec.epoch_steps, periods.size(),
                100.0 * kEpochTailQuantile);
  result.note(line);
}

void add_per_layer(const TrainSpec& spec, TrainStack& stack,
                   const EpochReport& rep, Result& result) {
  const double steps = static_cast<double>(rep.stats.steps);
  const double rank_steps = steps * spec.ranks;
  std::vector<double> local;
  for (const TrainStepRecord& s : rep.steps) local.push_back(s.seconds);
  const double local_s = median(local);
  const double period_s = median(step_periods(rep));
  const double tokens = static_cast<double>(spec.batch.tokens_per_rank());

  result.set("nn.local_step_ms", 1e3 * local_s);
  result.set("nn.fwd_ms", 1e3 * rep.forward_seconds / rank_steps);
  result.set("nn.bwd_ms", 1e3 * rep.backward_seconds / rank_steps);
  result.set("nn.gflops",
             stack.trainer->model(0).flops_per_token() * tokens / local_s / 1e9);
  result.set("core.sync_ms", 1e3 * (period_s - local_s));
  result.set("core.exchange_ms", 1e3 * rep.exchange_seconds / rank_steps);
  result.set("core.optimizer_ms", 1e3 * rep.optimizer_seconds / rank_steps);
  result.set("core.unique_ratio",
             static_cast<double>(rep.stats.global_unique_sum) /
                 (rank_steps * tokens));
  const TrafficLedger& ledger = rep.stats.comm_total;
  result.set("comm.bytes_per_step",
             static_cast<double>(ledger.bytes_sent) / steps);
  result.set("comm.calls_per_step",
             static_cast<double>(ledger.allreduce_calls +
                                 ledger.allgather_calls +
                                 ledger.alltoall_calls +
                                 ledger.broadcast_calls +
                                 ledger.barrier_calls) /
                 steps);
  if (spec.options.overlapped_exchange) {
    result.set("comm.overlap_efficiency",
               obs::MetricsRegistry::global()
                   .gauge("comm/overlap_efficiency")
                   .value());
  } else {
    result.set("comm.overlap_efficiency", 0.0);
    result.note("comm.overlap_efficiency = 0: this workload runs the "
                "synchronous dense sync (no overlap engine)");
  }
  if (spec.ranks == 1) {
    result.note("comm.bytes_per_step = 0: a single rank sends nothing");
  }
  for (const char* name :
       {"serve.queue_p50_ms", "serve.queue_p99_ms", "serve.exec_ms",
        "serve.net_ms", "serve.occupancy", "serve.cache_hit_ratio",
        "serve.primed_per_req", "nn.serve_step_us", "nn.serve_step_width",
        "net.bytes_per_req", "loadgen.lag_p99_ms"}) {
    result.set(name, 0.0);
  }
  result.note("serve.*, net.*, loadgen.* and nn.serve_step_* = 0: "
              "training runs no serving stack");
}

}  // namespace

Result run_train(const Args& args) {
  const TrainSpec spec = train_spec(args);
  Result result;

  std::unique_ptr<TrainStack> stack;
  const double setup_s =
      median_setup_seconds(stack, [&] { return build_stack(spec); });

  // A warm-up epoch pays for lazy allocation (optimizer moments,
  // first-touch pages, the allocator settling).
  TokenStream stream(spec.corpus, args.seed);
  run_epoch(*stack, take_ids(stream, spec, spec.warmup_steps), 0);
  const double measured_seconds = args.trace ? args.seconds / 2 : args.seconds;

  // Measured epochs of epoch_steps each until measured_seconds is used
  // (at least one), so one burst of interference on the host moves one
  // epoch's rate, not the reported median.
  std::vector<EpochReport> measured;
  std::vector<TrainStepRecord> measured_steps;
  const double measure_end = now_seconds() + measured_seconds;
  do {
    measured.push_back(
        run_epoch(*stack, take_ids(stream, spec, spec.epoch_steps), 1));
    measured_steps.insert(measured_steps.end(), measured.back().steps.begin(),
                          measured.back().steps.end());
  } while (now_seconds() < measure_end);
  add_end_to_end(spec, measured, setup_s, result);

  if (args.trace) {
    std::vector<double> rates;
    std::vector<double> periods;
    for (const EpochReport& rep : measured) {
      rates.push_back(tokens_per_second(spec, rep));
      const std::vector<double> p = step_periods(rep);
      periods.insert(periods.end(), p.begin(), p.end());
    }
    const double untraced_tok_s = median(rates);
    // One traced epoch as long as the measured part, paced by its median
    // step period.
    const std::size_t traced_steps = std::max(
        spec.epoch_steps,
        static_cast<std::size_t>(measured_seconds / median(periods)));
    obs::trace_clear();
    obs::set_thread_lane("main", -1);
    obs::trace_enable(true);
    const EpochReport traced =
        run_epoch(*stack, take_ids(stream, spec, traced_steps), 2);
    obs::trace_enable(false);
    obs::write_chrome_trace_file(args.trace_path);
    add_per_layer(spec, *stack, traced, result);
    result.set("obs.trace_overhead_pct",
               100.0 * (untraced_tok_s - tokens_per_second(spec, traced)) /
                   untraced_tok_s);
    calibrate(result, args.smoke);
  }
  check_training(*stack, spec, measured_steps, result);
  return result;
}

}  // namespace perfbench
