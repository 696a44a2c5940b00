// End-to-end distributed training: replicas stay synchronized, loss
// falls, unique == dense trajectories, memory/OOM behaviour.
#include <gtest/gtest.h>

#include "zipflm/core/trainer.hpp"
#include "zipflm/data/corpus.hpp"

namespace zipflm {
namespace {

std::vector<Index> tiny_corpus(Index vocab, std::size_t n,
                               std::uint64_t seed) {
  ZipfSampler sampler(static_cast<std::uint64_t>(vocab), 1.1);
  Rng rng(seed);
  std::vector<Index> ids(n);
  for (auto& id : ids) id = static_cast<Index>(sampler.sample(rng) - 1);
  return ids;
}

TrainerOptions tiny_options() {
  TrainerOptions opt;
  opt.batch = BatchSpec{2, 6};
  opt.base_lr = 0.2f;
  opt.lr_decay = 1.0f;
  opt.clip = 5.0f;
  opt.charge_static_memory = false;
  return opt;
}

DistributedTrainer::ModelFactory tiny_word_factory(Index vocab) {
  return [vocab](int /*rank*/) -> std::unique_ptr<LmModel> {
    WordLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 12;
    cfg.proj_dim = 8;
    cfg.seed = 1234;
    return std::make_unique<WordLm>(cfg);
  };
}

/// `shard_world` > 0 row-shards the input table over that many ranks.
DistributedTrainer::ModelFactory tiny_char_factory(Index vocab,
                                                   int shard_world = 0) {
  return [vocab, shard_world](int rank) -> std::unique_ptr<LmModel> {
    CharLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 10;
    cfg.depth = 2;
    cfg.seed = 99;
    cfg.shard_rank = rank;
    cfg.shard_world = shard_world;
    return std::make_unique<CharLm>(cfg);
  };
}

TEST(Trainer, CharLmLossDecreasesOverEpochs) {
  const Index vocab = 30;
  const auto train = tiny_corpus(vocab, 4000, 1);
  const auto valid = tiny_corpus(vocab, 600, 2);

  CommWorld world(2);
  TrainerOptions opt = tiny_options();
  opt.use_adam = true;
  opt.base_lr = 5e-3f;
  DistributedTrainer trainer(world, tiny_char_factory(vocab), opt);

  const auto first = trainer.run_epoch(train, valid, 0);
  EXPECT_GT(first.steps, 10u);
  EpochStats last = first;
  for (int e = 1; e < 4; ++e) last = trainer.run_epoch(train, valid, e);
  EXPECT_LT(last.valid_loss, first.valid_loss)
      << "training must improve validation loss";
  EXPECT_GT(first.valid_perplexity, 1.0);
}

TEST(Trainer, WordLmWithSampledSoftmaxTrains) {
  const Index vocab = 60;
  const auto train = tiny_corpus(vocab, 4000, 3);
  const auto valid = tiny_corpus(vocab, 600, 4);

  CommWorld world(2);
  TrainerOptions opt = tiny_options();
  opt.samples_per_rank = 16;
  opt.seed_policy = SeedPolicy::ZipfFreq;
  opt.base_lr = 0.3f;
  DistributedTrainer trainer(world, tiny_word_factory(vocab), opt);

  const auto first = trainer.run_epoch(train, valid, 0);
  EpochStats last = first;
  for (int e = 1; e < 4; ++e) last = trainer.run_epoch(train, valid, e);
  EXPECT_LT(last.valid_loss, first.valid_loss);
  EXPECT_GT(first.global_unique_sum, 0u);
}

TEST(Trainer, ReplicasStayBitIdentical) {
  const Index vocab = 40;
  const auto train = tiny_corpus(vocab, 3000, 5);
  const auto valid = tiny_corpus(vocab, 400, 6);

  for (const bool unique : {true, false}) {
    CommWorld world(4);
    TrainerOptions opt = tiny_options();
    opt.unique_exchange = unique;
    opt.samples_per_rank = 12;
    DistributedTrainer trainer(world, tiny_word_factory(vocab), opt);
    EXPECT_TRUE(trainer.replicas_in_sync()) << "factory must be rank-blind";
    trainer.run_epoch(train, valid, 0);
    EXPECT_TRUE(trainer.replicas_in_sync())
        << (unique ? "unique" : "dense")
        << " exchange let replicas diverge";
  }
}

TEST(Trainer, TableGradientsExistOnlyAsRows) {
  // Embedding gradients travel as rows (input_delta, SparseRowGrad), so
  // no table ever holds a dense V x D gradient — before or after a
  // synchronized step.  Every dense parameter keeps its full gradient.
  const Index vocab = 40;
  const auto train = tiny_corpus(vocab, 400, 9);
  const auto valid = tiny_corpus(vocab, 100, 10);
  const auto expect_rows_only = [](LmModel& model, const char* what) {
    EXPECT_TRUE(model.input_embedding_param().grad.empty()) << what;
    if (Param* out = model.sampled_output_param(); out != nullptr) {
      EXPECT_TRUE(out->grad.empty()) << what;
    }
    if (ShardedEmbedding* se = model.sharded_input(); se != nullptr) {
      EXPECT_TRUE(se->param().grad.empty()) << what;
    }
    for (const Param* p : model.dense_params()) {
      EXPECT_EQ(p->grad.shape(), p->value.shape()) << what << ' ' << p->name;
    }
  };

  for (const int gpus : {1, 4}) {
    struct Case {
      const char* what;
      DistributedTrainer::ModelFactory factory;
      bool sampled;
      bool sharded;
    };
    const Case cases[] = {
        {"word", tiny_word_factory(vocab), true, false},
        {"char", tiny_char_factory(vocab), false, false},
        {"char sharded", tiny_char_factory(vocab, gpus), false, true},
    };
    for (const Case& c : cases) {
      CommWorld world(gpus);
      TrainerOptions opt = tiny_options();
      if (c.sampled) opt.samples_per_rank = 12;
      opt.shard_embedding = c.sharded;
      DistributedTrainer trainer(world, c.factory, opt);
      for (int r = 0; r < gpus; ++r) {
        expect_rows_only(trainer.model(r), c.what);
      }
      const EpochStats stats = trainer.run_epoch(train, valid, 0);
      EXPECT_GT(stats.steps, 0u) << c.what << " G=" << gpus;
      for (int r = 0; r < gpus; ++r) {
        expect_rows_only(trainer.model(r), c.what);
      }
    }
  }
}

TEST(Trainer, AdamHoldsMomentsOnlyForOwnedChunks) {
  // The owner-side dense update sizes each rank's Adam moments to the
  // ring chunk it owns: 8 bytes (m and v) per owned element.  The
  // replicated input table's moments stay whole on every rank.
  const Index vocab = 30;
  const auto train = tiny_corpus(vocab, 1200, 19);
  for (const int gpus : {1, 3, 4}) {
    CommWorld world(gpus);
    TrainerOptions opt = tiny_options();
    opt.use_adam = true;
    opt.base_lr = 5e-3f;
    DistributedTrainer trainer(world, tiny_char_factory(vocab), opt);
    trainer.run_epoch(train, {}, 0);
    for (int r = 0; r < gpus; ++r) {
      LmModel& model = trainer.model(r);
      std::size_t owned = 0;
      for (const Param* p : model.dense_params()) {
        owned += Communicator::owned_chunk(
                     static_cast<std::size_t>(p->size()), r, gpus)
                     .size();
      }
      const auto& adam = static_cast<const Adam&>(trainer.optimizer(r));
      const Param& table = model.input_embedding_param();
      ASSERT_TRUE(adam.has_moments(table));
      const std::size_t table_bytes =
          adam.moment_m(table).bytes() + adam.moment_v(table).bytes();
      EXPECT_EQ(table_bytes, 8 * static_cast<std::size_t>(table.size()));
      EXPECT_EQ(adam.state_bytes() - table_bytes, 8 * owned)
          << "G=" << gpus << " rank " << r;
    }
  }
}

TEST(Trainer, UniqueAndDenseExchangeGiveSameTrajectory) {
  const Index vocab = 25;
  const auto train = tiny_corpus(vocab, 2500, 7);
  const auto valid = tiny_corpus(vocab, 500, 8);

  double losses[2];
  for (const bool unique : {false, true}) {
    CommWorld world(3);
    TrainerOptions opt = tiny_options();
    opt.unique_exchange = unique;
    DistributedTrainer trainer(world, tiny_char_factory(vocab), opt);
    const auto stats = trainer.run_epoch(train, valid, 0);
    losses[unique ? 1 : 0] = stats.valid_loss;
  }
  // Same data, same seeds: only float summation order differs.
  EXPECT_NEAR(losses[0], losses[1], 1e-3);
}

TEST(Trainer, UniqueExchangeMovesFewerBytes) {
  // Wide embeddings + a heavy-tailed corpus: the regime where the paper's
  // savings appear (payload dominates indices, U_g << G*K).
  const Index vocab = 500;
  ZipfSampler sampler(static_cast<std::uint64_t>(vocab), 1.6);
  Rng rng(9);
  std::vector<Index> train(20000), valid(500);
  for (auto& id : train) id = static_cast<Index>(sampler.sample(rng) - 1);
  for (auto& id : valid) id = static_cast<Index>(sampler.sample(rng) - 1);

  auto wide_factory = [vocab](int) -> std::unique_ptr<LmModel> {
    WordLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 32;
    cfg.hidden_dim = 16;
    cfg.proj_dim = 16;
    cfg.seed = 77;
    return std::make_unique<WordLm>(cfg);
  };

  std::uint64_t bytes[2];
  for (const bool unique : {false, true}) {
    CommWorld world(4);
    TrainerOptions opt = tiny_options();
    opt.unique_exchange = unique;
    opt.batch = BatchSpec{8, 32};
    opt.samples_per_rank = 32;
    DistributedTrainer trainer(world, wide_factory, opt);
    const auto stats = trainer.run_epoch(train, valid, 0);
    bytes[unique ? 1 : 0] = stats.comm_total.bytes_sent;
  }
  EXPECT_LT(bytes[1], bytes[0]);
}

TEST(Trainer, CompressionHalvesEmbeddingWireBytesAndStillLearns) {
  const Index vocab = 30;
  const auto train = tiny_corpus(vocab, 3000, 11);
  const auto valid = tiny_corpus(vocab, 400, 12);

  CommWorld world(2);
  TrainerOptions opt = tiny_options();
  opt.wire = WirePrecision::FP16;
  opt.compression_scale = 512.0f;
  opt.use_adam = true;
  opt.base_lr = 5e-3f;
  DistributedTrainer trainer(world, tiny_char_factory(vocab), opt);
  const auto first = trainer.run_epoch(train, valid, 0);
  EpochStats last = first;
  for (int e = 1; e < 4; ++e) last = trainer.run_epoch(train, valid, e);
  EXPECT_LT(last.valid_loss, first.valid_loss)
      << "FP16-compressed training must still converge";
  EXPECT_TRUE(trainer.replicas_in_sync());
}

TEST(Trainer, StatsArePopulated) {
  const Index vocab = 30;
  const auto train = tiny_corpus(vocab, 2000, 13);
  const auto valid = tiny_corpus(vocab, 300, 14);

  CommWorld world(2);
  TrainerOptions opt = tiny_options();
  opt.charge_static_memory = true;
  DistributedTrainer trainer(world, tiny_char_factory(vocab), opt);
  const auto stats = trainer.run_epoch(train, valid, 0);

  EXPECT_GT(stats.steps, 0u);
  EXPECT_GT(stats.train_loss, 0.0);
  EXPECT_GT(stats.valid_loss, 0.0);
  EXPECT_GT(stats.comm_total.bytes_sent, 0u);
  EXPECT_GT(stats.peak_memory_bytes, 0u);
  EXPECT_GT(stats.sim_compute_seconds, 0.0);
  EXPECT_GT(stats.sim_comm_seconds, 0.0);
  EXPECT_NEAR(stats.sim_total_seconds,
              stats.sim_compute_seconds + stats.sim_comm_seconds, 1e-12);
}

TEST(Trainer, TinyDeviceOOMsWithDenseExchange) {
  const Index vocab = 2000;
  const auto train = tiny_corpus(vocab, 60000, 15);
  const auto valid = tiny_corpus(vocab, 500, 16);

  CommWorld world(4);
  TrainerOptions opt = tiny_options();
  opt.unique_exchange = false;
  opt.batch = BatchSpec{8, 32};
  opt.samples_per_rank = 256;
  // Tiny card: the G*(K+S)*D allgather scratch cannot fit.
  opt.device.memory_bytes = 32 << 10;  // 32 KB
  opt.charge_static_memory = false;

  DistributedTrainer trainer(world, tiny_word_factory(vocab), opt);
  EXPECT_THROW(trainer.run_epoch(train, valid, 0), OutOfMemoryError);
}

TEST(Trainer, EvaluateIsPureAndRepeatable) {
  const Index vocab = 30;
  const auto valid = tiny_corpus(vocab, 800, 17);
  CommWorld world(2);
  DistributedTrainer trainer(world, tiny_char_factory(vocab),
                             tiny_options());
  const double a = trainer.evaluate(valid);
  const double b = trainer.evaluate(valid);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(trainer.replicas_in_sync());
}

}  // namespace
}  // namespace zipflm
