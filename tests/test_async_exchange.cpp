// Overlapped bucketed gradient exchange: the async engine itself (FIFO,
// error capture, inline degradation), and the end-to-end contract that a
// training run with overlap on is bitwise identical to one with overlap
// off — same losses, same weights — at G in {1, 4} and FP32/FP16 wire.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

#include "zipflm/comm/async_exchange.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/grad_sync.hpp"
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

TrainerOptions tiny_options() {
  TrainerOptions opt;
  opt.batch = BatchSpec{2, 6};
  opt.base_lr = 0.2f;
  opt.lr_decay = 1.0f;
  opt.clip = 5.0f;
  opt.charge_static_memory = false;
  return opt;
}

void append_floats(std::vector<unsigned char>& out,
                   std::span<const float> data) {
  const auto* b = reinterpret_cast<const unsigned char*>(data.data());
  out.insert(out.end(), b, b + data.size() * sizeof(float));
}

/// Every parameter tensor of every replica, as raw bytes.
std::vector<unsigned char> model_bytes(DistributedTrainer& trainer) {
  std::vector<unsigned char> out;
  for (Param* p : trainer.model(0).all_params()) {
    append_floats(out, p->value.data());
  }
  return out;
}

/// Replica 0's dense gradients as the last step's sync left them.
std::vector<unsigned char> dense_grad_bytes(DistributedTrainer& trainer) {
  std::vector<unsigned char> out;
  for (Param* p : trainer.model(0).dense_params()) {
    append_floats(out, p->grad.data());
  }
  return out;
}

// -- AsyncCommEngine unit behaviour ----------------------------------

TEST(AsyncCommEngine, ThreadedModeDrainsFifo) {
  CommWorld world(1);
  world.run([](Communicator& comm) {
    // force_thread: this host may have one hardware thread, where the
    // engine would otherwise degrade to inline execution.
    AsyncCommEngine engine(comm, /*overlap=*/true, /*force_thread=*/true);
    EXPECT_TRUE(engine.overlap());
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
      engine.submit("job", 8, [&order, i](Communicator&) {
        order.push_back(i);  // worker thread runs jobs one at a time
      });
    }
    engine.flush();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
    const auto stats = engine.stats();
    EXPECT_EQ(stats.jobs, 16u);
    EXPECT_EQ(stats.payload_bytes, 16u * 8u);
  });
}

TEST(AsyncCommEngine, InlineModeRunsAtSubmit) {
  CommWorld world(1);
  world.run([](Communicator& comm) {
    AsyncCommEngine engine(comm, /*overlap=*/false);
    EXPECT_FALSE(engine.overlap());
    bool ran = false;
    engine.submit("job", 4, [&ran](Communicator&) { ran = true; });
    EXPECT_TRUE(ran) << "overlap off must execute the job inside submit()";
    engine.flush();  // nothing queued; must not block or throw
    EXPECT_EQ(engine.stats().jobs, 1u);
  });
}

TEST(AsyncCommEngine, JobErrorAbortsQueueAndRethrowsAtFlush) {
  CommWorld world(1);
  world.run([](Communicator& comm) {
    AsyncCommEngine engine(comm, /*overlap=*/true, /*force_thread=*/true);
    bool later_ran = false;
    engine.submit("boom", 0, [](Communicator&) {
      throw std::runtime_error("wire fault");
    });
    engine.submit("after", 0, [&later_ran](Communicator&) {
      later_ran = true;
    });
    EXPECT_THROW(engine.flush(), std::runtime_error);
    EXPECT_FALSE(later_ran) << "jobs after a failure must be aborted";
    // The error is consumed; the engine is reusable for the next step.
    bool ran = false;
    engine.submit("next", 0, [&ran](Communicator&) { ran = true; });
    engine.flush();
    EXPECT_TRUE(ran);
  });
}

TEST(AsyncCommEngine, OverlapEfficiencyGauge) {
  AsyncCommEngine::Stats s;
  s.busy_seconds = 2.0;
  s.flush_wait_seconds = 0.5;
  EXPECT_DOUBLE_EQ(AsyncCommEngine::overlap_efficiency(s), 0.75);
  s.flush_wait_seconds = 3.0;  // waited longer than comm worked
  EXPECT_DOUBLE_EQ(AsyncCommEngine::overlap_efficiency(s), 0.0);
  s.busy_seconds = 0.0;
  EXPECT_DOUBLE_EQ(AsyncCommEngine::overlap_efficiency(s), 0.0);
}

// -- End-to-end: overlap on == overlap off, bit for bit --------------

void expect_overlap_matches_sync(int gpus, WirePrecision wire) {
  const Index vocab = 50;
  const auto train = tiny_corpus(vocab, 2400, 7);
  const auto valid = tiny_corpus(vocab, 400, 8);

  std::vector<unsigned char> reference, ref_grads;
  double ref_train = 0.0, ref_valid = 0.0;
  for (const bool overlap : {false, true}) {
    CommWorld world(gpus);
    TrainerOptions opt = tiny_options();
    opt.samples_per_rank = 16;
    opt.wire = wire;
    opt.overlapped_exchange = overlap;
    opt.overlap_bucket_bytes = 512;  // several buckets even at toy sizes
    DistributedTrainer trainer(world, tiny_word_factory(vocab), opt);

    EpochStats last{};
    for (int e = 0; e < 2; ++e) last = trainer.run_epoch(train, valid, e);
    EXPECT_TRUE(trainer.replicas_in_sync());

    const auto bytes = model_bytes(trainer);
    const auto grads = dense_grad_bytes(trainer);
    if (!overlap) {
      reference = bytes;
      ref_grads = grads;
      ref_train = last.train_loss;
      ref_valid = last.valid_loss;
      continue;
    }
    // Bitwise: the losses are exact doubles, the weights and the last
    // step's reduced gradients exact bytes.
    EXPECT_EQ(last.train_loss, ref_train);
    EXPECT_EQ(last.valid_loss, ref_valid);
    ASSERT_EQ(bytes.size(), reference.size());
    EXPECT_EQ(0, std::memcmp(bytes.data(), reference.data(), bytes.size()))
        << "overlap on diverged from overlap off at G=" << gpus;
    EXPECT_EQ(grads, ref_grads)
        << "bucketed gradients differ from sync()'s at G=" << gpus;
  }
}

TEST(OverlappedExchange, MatchesSyncBitwiseG1Fp32) {
  expect_overlap_matches_sync(1, WirePrecision::FP32);
}

TEST(OverlappedExchange, MatchesSyncBitwiseG4Fp32) {
  expect_overlap_matches_sync(4, WirePrecision::FP32);
}

TEST(OverlappedExchange, MatchesSyncBitwiseG4Fp16) {
  expect_overlap_matches_sync(4, WirePrecision::FP16);
}

TEST(OverlappedExchange, SyncAndBucketsShareOneFp16WireBuffer) {
  // One DenseGradSync serves both engines through a single FP16 wire
  // buffer, grown to the largest parameter.  Alternate the synchronous
  // path (inline engine, no notifications) and the overlapped one
  // (comm thread, notified buckets) on one instance, over parameters of
  // mixed sizes: every round must leave the same reduced gradients, bit
  // for bit.
  const std::vector<std::vector<Index>> shapes = {
      {5, 40}, {3}, {17, 9}, {64}, {2, 2}};
  CommWorld world(4);
  world.run([&](Communicator& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    DenseGradSync sync(ExchangeOptions{WirePrecision::FP16, 64.0f});
    sync.set_bucket_bytes(256);
    std::vector<unsigned char> reference;
    for (int round = 0; round < 4; ++round) {
      std::vector<Param> params;
      params.reserve(shapes.size());
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        params.emplace_back("p", Tensor(shapes[s]));
        auto g = params.back().grad.data();
        for (std::size_t i = 0; i < g.size(); ++i) {
          g[i] = 0.01f * static_cast<float>((i * 13 + s * 7 + rank) % 97) -
                 0.4f;
        }
      }
      std::vector<Param*> ptrs;
      for (Param& p : params) ptrs.push_back(&p);

      if (round % 2 == 0) {
        AsyncCommEngine engine(comm, /*overlap=*/false);
        sync.begin_step(comm, engine, ptrs);
        sync.finish();
      } else {
        AsyncCommEngine engine(comm, /*overlap=*/true, /*force_thread=*/true);
        sync.begin_step(comm, engine, ptrs);
        for (std::size_t i = ptrs.size(); i-- > 0;) sync.notify_ready(ptrs[i]);
        sync.finish();
      }
      std::vector<unsigned char> grads;
      for (const Param& p : params) append_floats(grads, p.grad.data());
      if (round == 0) {
        reference = grads;
      } else {
        EXPECT_EQ(grads, reference) << "round " << round << ", rank " << rank;
      }
    }
  });
}

// -- Gradient wire codecs through the full trainer -------------------

TEST(CodedTraining, Int8KeepsReplicasInSyncAndConverges) {
  // INT8 is lossy, so the contract is weaker: replicas stay bitwise
  // identical to each other (deterministic quantization), and the loss
  // stays epsilon-close to the raw trajectory.
  const Index vocab = 50;
  const auto train = tiny_corpus(vocab, 2400, 13);
  const auto valid = tiny_corpus(vocab, 400, 14);

  double raw_valid = 0.0;
  for (const bool coded : {false, true}) {
    CommWorld world(4);
    TrainerOptions opt = tiny_options();
    opt.samples_per_rank = 16;
    if (coded) opt.wire_codec = WireCodec::Int8;
    DistributedTrainer trainer(world, tiny_word_factory(vocab), opt);
    const EpochStats stats = trainer.run_epoch(train, valid, 0);
    EXPECT_TRUE(trainer.replicas_in_sync());
    EXPECT_TRUE(std::isfinite(stats.valid_loss));
    if (!coded) {
      raw_valid = stats.valid_loss;
    } else {
      EXPECT_NEAR(stats.valid_loss, raw_valid, 0.05 * raw_valid);
    }
  }
}

}  // namespace
}  // namespace zipflm
