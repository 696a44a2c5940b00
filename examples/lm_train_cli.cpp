// A small command-line trainer: the whole public API behind flags.
//
//   lm_train_cli [--model word|char] [--gpus N] [--epochs N]
//                [--vocab N] [--tokens N] [--batch N] [--seqlen N]
//                [--no-unique] [--fp16]
//                [--seed-policy g|zipf|log2|loge|log10|shared]
//                [--lr X] [--checkpoint PATH] [--resume] [--seed N]
//                [--trace OUT.json] [--metrics-every N]
//
// With --checkpoint, the full training state (weights, optimizer
// moments, RNG streams) is written atomically after every epoch;
// --resume restores it and continues from the next epoch, bitwise
// identical to a run that was never interrupted.
//
// --trace writes a Chrome trace-event JSON of the whole run (load it at
// https://ui.perfetto.dev — one lane per simulated rank).
// --metrics-every prints a METRICS line (the unified registry snapshot)
// every N optimizer steps, and a final one at exit.
//
// Example:
//   lm_train_cli --model char --gpus 4 --epochs 3 --fp16
//   lm_train_cli --model char --gpus 4 --epochs 3 --fp16
//                --checkpoint /tmp/char.ckpt --resume
//   lm_train_cli --gpus 4 --trace /tmp/train.json --metrics-every 50
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "zipflm/core/checkpoint.hpp"
#include "zipflm/core/trainer.hpp"
#include "zipflm/data/markov.hpp"
#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/support/format.hpp"

using namespace zipflm;

namespace {

struct CliArgs {
  std::string model = "word";
  int gpus = 4;
  int epochs = 3;
  Index vocab = 1000;
  std::size_t tokens = 120'000;
  Index batch = 4;
  Index seqlen = 20;
  bool unique = true;
  bool fp16 = false;
  SeedPolicy policy = SeedPolicy::ZipfFreq;
  float lr = 0.0f;  // 0 = model default
  std::string checkpoint;
  bool resume = false;
  std::uint64_t seed = 2026;
  std::string trace;
  int metrics_every = 0;

  static void usage(const char* prog) {
    std::fprintf(stderr,
                 "usage: %s [--model word|char] [--gpus N] [--epochs N]\n"
                 "          [--vocab N] [--tokens N] [--batch N]\n"
                 "          [--seqlen N] [--no-unique] [--fp16]\n"
                 "          [--seed-policy NAME]\n"
                 "          [--lr X] [--checkpoint PATH] [--resume]\n"
                 "          [--seed N] [--trace OUT.json]\n"
                 "          [--metrics-every N]\n",
                 prog);
  }

  static CliArgs parse(int argc, char** argv) {
    CliArgs a;
    auto need_value = [&](int& i) -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--model") {
        a.model = need_value(i);
      } else if (flag == "--gpus") {
        a.gpus = std::atoi(need_value(i));
      } else if (flag == "--epochs") {
        a.epochs = std::atoi(need_value(i));
      } else if (flag == "--vocab") {
        a.vocab = std::atoll(need_value(i));
      } else if (flag == "--tokens") {
        a.tokens = static_cast<std::size_t>(std::atoll(need_value(i)));
      } else if (flag == "--batch") {
        a.batch = std::atoll(need_value(i));
      } else if (flag == "--seqlen") {
        a.seqlen = std::atoll(need_value(i));
      } else if (flag == "--no-unique") {
        a.unique = false;
      } else if (flag == "--fp16") {
        a.fp16 = true;
      } else if (flag == "--lr") {
        a.lr = static_cast<float>(std::atof(need_value(i)));
      } else if (flag == "--checkpoint") {
        a.checkpoint = need_value(i);
      } else if (flag == "--resume") {
        a.resume = true;
      } else if (flag == "--seed") {
        a.seed = std::strtoull(need_value(i), nullptr, 10);
      } else if (flag == "--trace") {
        a.trace = need_value(i);
      } else if (flag == "--metrics-every") {
        a.metrics_every = std::atoi(need_value(i));
      } else if (flag == "--seed-policy") {
        const std::string p = need_value(i);
        if (p == "g") a.policy = SeedPolicy::PerRank;
        else if (p == "zipf") a.policy = SeedPolicy::ZipfFreq;
        else if (p == "log2") a.policy = SeedPolicy::Log2G;
        else if (p == "loge") a.policy = SeedPolicy::LogEG;
        else if (p == "log10") a.policy = SeedPolicy::Log10G;
        else if (p == "shared") a.policy = SeedPolicy::SharedAll;
        else {
          std::fprintf(stderr, "unknown seed policy: %s\n", p.c_str());
          std::exit(2);
        }
      } else {
        usage(argv[0]);
        std::exit(flag == "--help" ? 0 : 2);
      }
    }
    return a;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const bool word = args.model == "word";
  if (!word && args.model != "char") {
    std::fprintf(stderr, "--model must be 'word' or 'char'\n");
    return 2;
  }

  const BigramCorpus corpus(args.vocab, std::min<Index>(16, args.vocab),
                            args.seed);
  const auto train = corpus.generate(args.tokens, 0);
  const auto valid = corpus.generate(std::max<std::size_t>(args.tokens / 10,
                                                           2000),
                                     1);

  CommWorld world(args.gpus);
  TrainerOptions opt;
  opt.unique_exchange = args.unique;
  opt.wire = args.fp16 ? WirePrecision::FP16 : WirePrecision::FP32;
  opt.batch = BatchSpec{args.batch, args.seqlen};
  opt.charge_static_memory = false;
  opt.clip = 5.0f;
  if (!args.trace.empty()) obs::trace_enable(true);
  if (args.metrics_every > 0) {
    opt.metrics_every = args.metrics_every;
    opt.metrics_sink = [](std::uint64_t step) {
      std::printf("METRICS step=%llu %s\n",
                  static_cast<unsigned long long>(step),
                  obs::MetricsRegistry::global().to_json().c_str());
    };
  }
  if (word) {
    opt.samples_per_rank = std::min<Index>(64, args.vocab);
    opt.seed_policy = args.policy;
    opt.base_lr = args.lr > 0 ? args.lr : 0.2f;
  } else {
    opt.use_adam = true;
    opt.base_lr = args.lr > 0 ? args.lr : 5e-3f;
  }

  const std::uint64_t seed = args.seed;
  const Index vocab = args.vocab;
  DistributedTrainer trainer(
      world,
      [word, vocab, seed](int) -> std::unique_ptr<LmModel> {
        if (word) {
          WordLmConfig cfg;
          cfg.vocab = vocab;
          cfg.embed_dim = 16;
          cfg.hidden_dim = 32;
          cfg.proj_dim = 16;
          cfg.seed = seed;
          return std::make_unique<WordLm>(cfg);
        }
        CharLmConfig cfg;
        cfg.vocab = vocab;
        cfg.embed_dim = 12;
        cfg.hidden_dim = 24;
        cfg.depth = 2;
        cfg.seed = seed;
        return std::make_unique<CharLm>(cfg);
      },
      opt);

  std::printf("%s LM | %d simulated GPUs | %s exchange | %s wire\n\n",
              args.model.c_str(), args.gpus,
              args.unique ? "UNIQUE" : "dense-allgather",
              args.fp16 ? "FP16" : "FP32");
  int start_epoch = 0;
  if (args.resume) {
    if (args.checkpoint.empty()) {
      std::fprintf(stderr, "--resume requires --checkpoint PATH\n");
      return 2;
    }
    trainer.restore_state_file(args.checkpoint);
    start_epoch = static_cast<int>(trainer.epochs_completed());
    std::printf("resumed from %s: %d epoch(s), %llu steps done\n",
                args.checkpoint.c_str(), start_epoch,
                static_cast<unsigned long long>(trainer.global_step()));
  }

  std::printf("epoch | train loss | valid ppl | wire/epoch | sim time\n");
  for (int e = start_epoch; e < args.epochs; ++e) {
    const auto stats = trainer.run_epoch(train, valid, e);
    std::printf("%5d | %10.6f | %9.2f | %10s | %s\n", e + 1,
                stats.train_loss, stats.valid_perplexity,
                format_bytes(stats.comm_total.bytes_sent).c_str(),
                format_duration(stats.sim_total_seconds).c_str());
    if (!args.checkpoint.empty()) {
      // Full training state, written atomically after every epoch —
      // kill the process at any point and --resume continues exactly.
      trainer.save_state_file(args.checkpoint);
    }
  }
  if (!args.checkpoint.empty()) {
    std::printf("\ncheckpoint written to %s\n", args.checkpoint.c_str());
  }
  if (args.metrics_every > 0) {
    std::printf("METRICS final %s\n",
                obs::MetricsRegistry::global().to_json().c_str());
  }
  if (!args.trace.empty()) {
    // Safe to export here: every rank thread has been joined by
    // CommWorld::run, so all trace writes happen-before this read.
    const auto stats = obs::write_chrome_trace_file(args.trace);
    std::printf("trace: %llu events on %llu lanes -> %s%s\n",
                static_cast<unsigned long long>(stats.events),
                static_cast<unsigned long long>(stats.lanes),
                args.trace.c_str(),
                stats.dropped > 0 ? " (ring overflow; oldest dropped)" : "");
  }
  return 0;
}
