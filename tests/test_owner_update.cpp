// Owner-side dense update: every rank reduce-scatters the dense
// gradients, steps the ring chunk it owns and allgathers the values.
// A replicated oracle — allreduce every gradient, then a whole-parameter
// Adam/Sgd step on every rank, the pre-ZeRO trainer step — must agree
// with it `==` on per-step losses, final weights and the checkpointed
// Adam blob, across world sizes, backends, wire codecs, wire precisions,
// overlap and optimizers; and a checkpoint saved at G=4 must continue
// bitwise-equal to the oracle at G=2 and G=1.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/checkpoint.hpp"
#include "zipflm/core/exchange.hpp"
#include "zipflm/core/trainer.hpp"
#include "zipflm/data/corpus.hpp"
#include "zipflm/tensor/cast.hpp"
#include "zipflm/tensor/ops.hpp"

namespace zipflm {
namespace {

constexpr Index kVocab = 30;
constexpr int kSteps = 3;

std::vector<Index> tiny_corpus(std::size_t n, std::uint64_t seed) {
  ZipfSampler sampler(static_cast<std::uint64_t>(kVocab), 1.1);
  Rng rng(seed);
  std::vector<Index> ids(n);
  for (auto& id : ids) id = static_cast<Index>(sampler.sample(rng) - 1);
  return ids;
}

std::unique_ptr<LmModel> make_model() {
  CharLmConfig cfg;
  cfg.vocab = kVocab;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 10;
  cfg.depth = 2;
  cfg.dropout = 0.1f;  // per-rank streams must survive the checkpoint
  cfg.seed = 99;
  return std::make_unique<CharLm>(cfg);
}

TrainerOptions base_options(bool adam, WirePrecision wire, WireCodec codec) {
  TrainerOptions opt;
  opt.batch = BatchSpec{2, 5};
  opt.lr_decay = 1.0f;
  opt.clip = 0.05f;  // small enough that the clamp binds
  opt.charge_static_memory = false;
  opt.use_adam = adam;
  opt.base_lr = adam ? 5e-3f : 0.2f;
  opt.wire = wire;
  opt.compression_scale = 512.0f;
  opt.wire_codec = codec;
  return opt;
}

/// Token ids for one step of `g` ranks: BatchIterator gives every rank
/// exactly one batch of them.
std::vector<Index> step_ids(const TrainerOptions& opt, int g, int step) {
  const auto n = static_cast<std::size_t>(
      g * opt.batch.batch_size * (opt.batch.seq_len + 1));
  return tiny_corpus(n, 1000 + static_cast<std::uint64_t>(step));
}

/// The replicated step: allreduce and average every dense gradient,
/// exchange the table rows, whole-parameter update on every rank.
class Oracle {
 public:
  Oracle(int g, const TrainerOptions& opt) : world_(g), opt_(opt) {
    const float lr = scaled_learning_rate(
        opt.base_lr, world_.topology().nodes, 0, opt.lr_decay);
    for (int r = 0; r < g; ++r) {
      Rank rank;
      rank.model = make_model();
      if (opt.use_adam) {
        Adam::Config cfg;
        cfg.lr = opt.base_lr;
        cfg.clip = opt.clip;
        rank.opt = std::make_unique<Adam>(cfg);
      } else {
        rank.opt = std::make_unique<Sgd>(opt.base_lr, opt.clip);
      }
      rank.opt->set_learning_rate(lr);
      rank.exchange = std::make_unique<UniqueExchange>(
          ExchangeOptions{opt.wire, opt.compression_scale, opt.wire_codec});
      ranks_.push_back(std::move(rank));
    }
  }

  /// Load weights, moments and dropout streams from a trainer
  /// checkpoint, as a replicated run would.
  void restore(const std::string& ckpt) {
    for (std::size_t r = 0; r < ranks_.size(); ++r) {
      std::istringstream in(ckpt, std::ios::binary);
      TrainState ts;
      load_checkpoint(in, *ranks_[r].model, &ts);
      std::istringstream blob(ts.optimizer_blob, std::ios::binary);
      ranks_[r].opt->load_state(blob, ranks_[r].model->all_params());
      ranks_[r].model->dropout_rng().set_state(ts.rank_rng[r]);
    }
  }

  /// One step; returns the trainer's epoch train_loss for it.
  double step(std::span<const Index> ids) {
    const int g = world_.world_size();
    std::vector<double> loss(static_cast<std::size_t>(g), 0.0);
    world_.run([&](Communicator& comm) {
      Rank& rank = ranks_[static_cast<std::size_t>(comm.rank())];
      LmModel& model = *rank.model;
      BatchIterator it(ids, opt_.batch, comm.rank(), g);
      Batch batch;
      ASSERT_TRUE(it.next(batch));
      model.zero_grad();
      LmStepResult res;
      model.train_step_local(batch, {}, res);
      loss[static_cast<std::size_t>(comm.rank())] = res.loss;
      const auto dense = model.dense_params();
      const float inv = 1.0f / static_cast<float>(g);
      {
        WireCodecScope scope(comm, opt_.wire_codec);
        for (Param* p : dense) {
          const std::span<float> grad = p->grad.data();
          if (g == 1) {
            // A single rank puts nothing on the wire, FP16 or not.
          } else if (opt_.wire == WirePrecision::FP32) {
            comm.allreduce_sum(grad);
          } else {
            std::vector<Half> wire(grad.size());
            compress_fp16(grad, opt_.compression_scale,
                          std::span<Half>(wire));
            comm.allreduce_sum(std::span<Half>(wire));
            decompress_fp16(wire, opt_.compression_scale, grad);
          }
          scale(p->grad, inv);
        }
      }
      std::vector<Index> uids;
      Tensor urows;
      rank.exchange->exchange(comm, res.input_ids, res.input_delta, uids,
                              urows);
      scale(urows, inv);
      if (opt_.use_adam) static_cast<Adam&>(*rank.opt).begin_step();
      rank.opt->step(dense);
      rank.opt->step_rows(model.input_embedding_param(), urows, uids);
    });
    double sum = 0.0;
    for (const double l : loss) sum += l;
    return sum / static_cast<double>(g);
  }

  LmModel& model(int r) { return *ranks_[static_cast<std::size_t>(r)].model; }
  std::string adam_blob() {
    std::ostringstream out(std::ios::binary);
    ranks_.front().opt->save_state(out, model(0).all_params());
    return out.str();
  }

 private:
  struct Rank {
    std::unique_ptr<LmModel> model;
    std::unique_ptr<Optimizer> opt;
    std::unique_ptr<EmbeddingExchange> exchange;
  };
  CommWorld world_;
  TrainerOptions opt_;
  std::vector<Rank> ranks_;
};

std::string trainer_adam_blob(DistributedTrainer& trainer) {
  std::ostringstream out(std::ios::binary);
  trainer.save_state(out);
  std::istringstream in(out.str(), std::ios::binary);
  TrainState ts;
  auto scratch = make_model();
  load_checkpoint(in, *scratch, &ts);
  return ts.optimizer_blob;
}

void expect_weights_equal(DistributedTrainer& trainer, Oracle& oracle, int g,
                          const std::string& what) {
  for (int r = 0; r < g; ++r) {
    const auto got = trainer.model(r).all_params();
    const auto want = oracle.model(r).all_params();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_TRUE(got[j]->value == want[j]->value)
          << what << ": rank " << r << " " << got[j]->name;
    }
  }
}

using MatrixParam = std::tuple<CommBackend, WireCodec, WirePrecision, bool>;

class OwnerUpdate : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(OwnerUpdate, MatchesReplicatedOracleBitwise) {
  const auto [backend, codec, wire, adam] = GetParam();
  for (int g = 1; g <= 4; ++g) {
    const TrainerOptions base = base_options(adam, wire, codec);
    Oracle oracle(g, base);
    std::vector<double> want;
    for (int s = 0; s < kSteps; ++s) {
      const auto ids = step_ids(base, g, s);
      want.push_back(oracle.step(ids));
    }
    for (const bool overlapped : {false, true}) {
      const std::string what =
          "G=" + std::to_string(g) + (overlapped ? " overlapped" : " inline");
      CommWorld::Options wopt;
      wopt.backend = backend;
      CommWorld world(g, wopt);
      TrainerOptions opt = base;
      opt.overlapped_exchange = overlapped;
      opt.overlap_bucket_bytes = 256;  // several buckets per step
      DistributedTrainer trainer(
          world, [](int) { return make_model(); }, opt);
      for (int s = 0; s < kSteps; ++s) {
        const auto ids = step_ids(base, g, s);
        const EpochStats stats = trainer.run_epoch(ids, {}, 0);
        ASSERT_EQ(stats.steps, 1u) << what;
        EXPECT_EQ(stats.train_loss, want[static_cast<std::size_t>(s)])
            << what << " step " << s;
      }
      EXPECT_TRUE(trainer.replicas_in_sync()) << what;
      expect_weights_equal(trainer, oracle, g, what);
      if (adam) {
        EXPECT_EQ(trainer_adam_blob(trainer), oracle.adam_blob()) << what;
      }
      // The ledger covers the last epoch: one step, one reduce-scatter
      // and one value allgather per dense parameter on every rank (none
      // at G=1), plus every rank's id allgatherv.
      const TrafficLedger led = world.total_ledger();
      const auto dense = static_cast<std::uint64_t>(g > 1 ? g : 0) *
                         trainer.model(0).dense_params().size();
      EXPECT_EQ(led.reduce_scatter_calls, dense) << what;
      EXPECT_EQ(led.allgather_calls, dense + static_cast<std::uint64_t>(g))
          << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, OwnerUpdate,
    ::testing::Combine(::testing::Values(CommBackend::SharedMem,
                                         CommBackend::Socket),
                       ::testing::Values(WireCodec::None, WireCodec::Int8),
                       ::testing::Values(WirePrecision::FP32,
                                         WirePrecision::FP16),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      const CommBackend backend = std::get<0>(info.param);
      const std::string b =
          backend == CommBackend::SharedMem ? "SharedMem" : "Socket";
      return b + "_" + wire_codec_name(std::get<1>(info.param)) +
             (std::get<2>(info.param) == WirePrecision::FP32 ? "_fp32"
                                                             : "_fp16") +
             (std::get<3>(info.param) ? "_adam" : "_sgd");
    });

TEST(OwnerUpdateCheckpoint, G4SaveContinuesBitwiseAtG2AndG1) {
  const TrainerOptions opt =
      base_options(true, WirePrecision::FP16, WireCodec::None);
  std::string ckpt;
  {
    CommWorld world(4);
    DistributedTrainer trainer(world, [](int) { return make_model(); }, opt);
    for (int s = 0; s < kSteps; ++s) {
      trainer.run_epoch(step_ids(opt, 4, s), {}, 0);
    }
    std::ostringstream out(std::ios::binary);
    trainer.save_state(out);
    ckpt = out.str();
  }
  for (const int g : {2, 1}) {
    const std::string what = "restored at G=" + std::to_string(g);
    Oracle oracle(g, opt);
    oracle.restore(ckpt);
    CommWorld world(g);
    DistributedTrainer trainer(world, [](int) { return make_model(); }, opt);
    std::istringstream in(ckpt, std::ios::binary);
    trainer.restore_state(in, /*allow_world_resize=*/true);
    // The restored trainer re-saves the blob it loaded, byte for byte.
    EXPECT_EQ(trainer_adam_blob(trainer), oracle.adam_blob()) << what;
    for (int s = kSteps; s < 2 * kSteps; ++s) {
      const auto ids = step_ids(opt, g, s);
      EXPECT_EQ(trainer.run_epoch(ids, {}, 0).train_loss, oracle.step(ids))
          << what << " step " << s;
    }
    expect_weights_equal(trainer, oracle, g, what);
    EXPECT_EQ(trainer_adam_blob(trainer), oracle.adam_blob()) << what;
  }
}

}  // namespace
}  // namespace zipflm
