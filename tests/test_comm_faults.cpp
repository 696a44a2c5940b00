// Fault injection: a killed rank must surface as CollectiveTimeoutError
// on every survivor (not a deadlock), be retired from the world, and the
// degraded world must keep producing correct collectives.  Stragglers
// finish; corrupted wire payloads poison every rank identically so the
// trainer's overflow guard can skip the step in lockstep.
//
// The whole suite is parameterized over the CommWorld backend AND over
// the gradient wire codec: the same guarantees must hold when the
// collectives run over shared memory and when they run over real
// sockets (where a dead rank is an EOF on the wire rather than a
// barrier timeout), and FaultSpec::at_collective indices — which count
// collective invocations, not bytes — must stay stable when a codec
// changes every payload's size on the wire.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/comm/wire_codec.hpp"
#include "zipflm/core/trainer.hpp"
#include "zipflm/data/corpus.hpp"
#include "zipflm/support/error.hpp"

namespace zipflm {
namespace {

class CommFaults
    : public ::testing::TestWithParam<std::tuple<CommBackend, WireCodec>> {
 protected:
  CommBackend backend() const { return std::get<0>(GetParam()); }
  WireCodec codec() const { return std::get<1>(GetParam()); }

  /// World options for the backend under test.
  CommWorld::Options world_options(double timeout_seconds = 0.0) const {
    CommWorld::Options opt;
    opt.backend = backend();
    opt.collective_timeout_seconds = timeout_seconds;
    return opt;
  }

  /// Trainer options carrying the codec under test.
  TrainerOptions trainer_options(TrainerOptions opt) const {
    opt.wire_codec = codec();
    opt.index_codec = codec() != WireCodec::None;
    return opt;
  }
};

std::vector<Index> tiny_corpus(Index vocab, std::size_t n,
                               std::uint64_t seed) {
  ZipfSampler sampler(static_cast<std::uint64_t>(vocab), 1.1);
  Rng rng(seed);
  std::vector<Index> ids(n);
  for (auto& id : ids) id = static_cast<Index>(sampler.sample(rng) - 1);
  return ids;
}

DistributedTrainer::ModelFactory char_factory(Index vocab) {
  return [vocab](int /*rank*/) -> std::unique_ptr<LmModel> {
    CharLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 10;
    cfg.depth = 2;
    cfg.seed = 99;
    return std::make_unique<CharLm>(cfg);
  };
}

TrainerOptions char_options() {
  TrainerOptions opt;
  opt.batch = BatchSpec{2, 6};
  opt.lr_decay = 1.0f;
  opt.clip = 5.0f;
  opt.charge_static_memory = false;
  opt.use_adam = true;
  opt.base_lr = 5e-3f;
  return opt;
}

TEST_P(CommFaults, KilledRankTimesOutSurvivorsAndIsRetired) {
  CommWorld world(4, world_options(2.0));
  FaultPlan plan;
  plan.events.push_back({.rank = 2, .kind = FaultKind::Kill,
                         .at_collective = 3});
  world.inject_faults(plan);

  std::atomic<int> survivors_timed_out{0};
  EXPECT_THROW(
      world.run([&](Communicator& comm) {
        WireCodecScope codec_scope(comm, codec());
        std::vector<float> buf(8, 1.0f);
        try {
          for (int i = 0; i < 10; ++i) {
            comm.allreduce_sum(std::span<float>(buf));
          }
        } catch (const CollectiveTimeoutError&) {
          survivors_timed_out.fetch_add(1);
          throw;
        }
      }),
      CollectiveTimeoutError);

  // Rank 2 died silently; the other three all hit the timeout.
  EXPECT_EQ(survivors_timed_out.load(), 3);
  EXPECT_EQ(world.world_size(), 3);
  EXPECT_EQ(world.total_ranks(), 4);
  ASSERT_EQ(world.failed_ranks().size(), 1u);
  EXPECT_EQ(world.failed_ranks().front(), 2);
  EXPECT_EQ(world.live_ranks(), (std::vector<int>{0, 1, 3}));

  // The degraded world still computes exact collectives over survivors.
  world.run([&](Communicator& comm) {
    WireCodecScope codec_scope(comm, codec());
    EXPECT_EQ(comm.world_size(), 3);
    std::vector<float> buf(4, 1.0f);
    comm.allreduce_sum(std::span<float>(buf));
    for (const float v : buf) EXPECT_EQ(v, 3.0f);
  });
}

TEST_P(CommFaults, SimulatedDeathCannotBeSwallowedByErrorHandlers) {
  CommWorld world(2, world_options(2.0));
  FaultPlan plan;
  plan.events.push_back({.rank = 1, .kind = FaultKind::Kill,
                         .at_collective = 0});
  world.inject_faults(plan);

  std::atomic<bool> swallowed{false};
  EXPECT_THROW(
      world.run([&](Communicator& comm) {
        WireCodecScope codec_scope(comm, codec());
        std::vector<float> buf(4, 1.0f);
        if (comm.rank() == 1) {
          // A crashed process cannot be caught from inside: user-level
          // Error handlers must not resurrect a killed rank.
          try {
            comm.allreduce_sum(std::span<float>(buf));
            return;
          } catch (const Error&) {
            swallowed = true;
            return;
          }
        }
        comm.allreduce_sum(std::span<float>(buf));
      }),
      CollectiveTimeoutError);
  EXPECT_FALSE(swallowed.load());
  EXPECT_EQ(world.failed_ranks(), (std::vector<int>{1}));
}

TEST_P(CommFaults, StragglerDelaysButCompletes) {
  CommWorld world(3, world_options(5.0));
  FaultPlan plan;
  plan.events.push_back({.rank = 1, .kind = FaultKind::Delay,
                         .at_collective = 1, .delay_seconds = 0.05});
  world.inject_faults(plan);

  world.run([&](Communicator& comm) {
    WireCodecScope codec_scope(comm, codec());
    std::vector<float> buf(4, 2.0f);
    comm.allreduce_sum(std::span<float>(buf));
    comm.allreduce_sum(std::span<float>(buf));  // rank 1 sleeps here, then arrives
    for (const float v : buf) EXPECT_EQ(v, 18.0f);
  });
  EXPECT_TRUE(world.failed_ranks().empty());
  EXPECT_EQ(world.world_size(), 3);
}

TEST_P(CommFaults, PathologicalStragglerHitsTimeoutWithoutRetirement) {
  // A rank delayed past the timeout looks like a hang to the others:
  // everyone throws, but nobody died, so no rank is retired.
  CommWorld world(2, world_options(0.25));
  FaultPlan plan;
  plan.events.push_back({.rank = 1, .kind = FaultKind::Delay,
                         .at_collective = 0, .delay_seconds = 1.5});
  world.inject_faults(plan);

  EXPECT_THROW(world.run([&](Communicator& comm) {
    WireCodecScope codec_scope(comm, codec());
    std::vector<float> buf(4, 1.0f);
    comm.allreduce_sum(std::span<float>(buf));
  }),
               CollectiveTimeoutError);
  EXPECT_TRUE(world.failed_ranks().empty());
  EXPECT_EQ(world.world_size(), 2);

  // The world recovers once the straggler returns: barriers were
  // poisoned, not destroyed, and the next run() resets them.
  world.run([&](Communicator& comm) {
    WireCodecScope codec_scope(comm, codec());
    std::vector<float> buf(2, 1.0f);
    comm.allreduce_sum(std::span<float>(buf));
    for (const float v : buf) EXPECT_EQ(v, 2.0f);
  });
}

TEST_P(CommFaults, CorruptPayloadPoisonsEveryRankIdentically) {
  CommWorld world(2, world_options());
  FaultPlan plan;
  plan.events.push_back({.rank = 1, .kind = FaultKind::Corrupt,
                         .at_collective = 0});
  world.inject_faults(plan);

  std::atomic<int> nan_ranks{0};
  world.run([&](Communicator& comm) {
    // The poison is injected into the input buffer, upstream of the
    // encoder; the lossless codec must carry the NaNs through intact.
    WireCodecScope codec_scope(comm, codec());
    std::vector<float> buf(8, 1.0f);
    comm.allreduce_sum(std::span<float>(buf));
    bool all_nan = true;
    for (const float v : buf) all_nan = all_nan && std::isnan(v);
    if (all_nan) nan_ranks.fetch_add(1);
  });
  // The ring reduction spreads the poison to both ranks in full.
  EXPECT_EQ(nan_ranks.load(), 2);
  EXPECT_TRUE(world.failed_ranks().empty());
}

TEST_P(CommFaults, RejectsOutOfRangeFaultRank) {
  CommWorld world(2, world_options());
  FaultPlan plan;
  plan.events.push_back({.rank = 5, .kind = FaultKind::Kill,
                         .at_collective = 0});
  EXPECT_THROW(world.inject_faults(plan), ConfigError);
}

TEST_P(CommFaults, TrainerSkipsCorruptedStepUniformly) {
  const Index vocab = 30;
  const auto train = tiny_corpus(vocab, 1200, 21);
  const auto valid = tiny_corpus(vocab, 300, 22);

  CommWorld world(2, world_options());
  TrainerOptions opt = trainer_options(char_options());
  opt.dynamic_loss_scale = true;  // arms the overflow guard
  DistributedTrainer trainer(world, char_factory(vocab), opt);

  // Collective 0 of the epoch is the first step's first dense-gradient
  // reduce-scatter: the poisoned payload reaches both ranks' owned
  // chunks as NaN, the overflow vote agrees, so both skip the same
  // optimizer step and the replicas never diverge.
  FaultPlan plan;
  plan.events.push_back({.rank = 1, .kind = FaultKind::Corrupt,
                         .at_collective = 0});
  world.inject_faults(plan);

  const auto stats = trainer.run_epoch(train, valid, 0);
  EXPECT_EQ(stats.skipped_steps, 1u);
  EXPECT_GT(stats.steps, stats.skipped_steps);
  EXPECT_TRUE(trainer.replicas_in_sync());
  EXPECT_TRUE(std::isfinite(stats.train_loss));
  EXPECT_TRUE(std::isfinite(stats.valid_loss));
}

TEST_P(CommFaults, ResilientEpochRollsBackAndExcludesDeadRank) {
  const Index vocab = 30;
  const auto train = tiny_corpus(vocab, 1200, 31);
  const auto valid = tiny_corpus(vocab, 300, 32);
  // Same codec in the clean reference and the faulty run: the rollback
  // must reproduce the clean trajectory under either wire format.
  const TrainerOptions opt = trainer_options(char_options());
  const std::string ckpt =
      ::testing::TempDir() + "zipflm_resilient.ckpt";

  // Reference: the same epoch over a 2-rank world that never failed.
  CommWorld clean_world(2);
  DistributedTrainer clean(clean_world, char_factory(vocab), opt);
  const auto want = clean.run_epoch(train, valid, 0);

  // Faulty run: 3 ranks, rank 1 dies mid-epoch.  The resilient driver
  // rolls the survivors back to the epoch-start checkpoint and reruns
  // over ranks {0, 2} — which must reproduce the clean 2-rank epoch
  // bit for bit, because the checkpoint restored the initial state and
  // the survivors are densely renumbered to a 2-rank schedule.
  CommWorld world(3, world_options(2.0));
  DistributedTrainer trainer(world, char_factory(vocab), opt);
  FaultPlan plan;
  plan.events.push_back({.rank = 1, .kind = FaultKind::Kill,
                         .at_collective = 40});
  world.inject_faults(plan);

  const auto got = trainer.run_epoch_resilient(train, valid, 0, ckpt);
  EXPECT_EQ(got.restarts, 1);
  EXPECT_EQ(world.failed_ranks(), (std::vector<int>{1}));
  EXPECT_EQ(world.world_size(), 2);
  EXPECT_TRUE(trainer.replicas_in_sync());
  EXPECT_EQ(got.train_loss, want.train_loss);
  EXPECT_EQ(got.valid_loss, want.valid_loss);

  // And the degraded trainer keeps training normally afterwards.
  const auto next = trainer.run_epoch(train, valid, 1);
  EXPECT_TRUE(std::isfinite(next.train_loss));
  std::remove(ckpt.c_str());
}

TEST_P(CommFaults, AdamRefusesToStepOnAfterAWorldChangeWithoutRestore) {
  // Adam's moments are owner slices of the dense parameters: after a
  // rank dies the survivors own different ring chunks, so stepping on
  // without restoring a checkpoint must fail loudly rather than pair
  // gradients with another chunk's moments.  Restoring re-slices them.
  const Index vocab = 30;
  const auto train = tiny_corpus(vocab, 1200, 51);
  const auto valid = tiny_corpus(vocab, 300, 52);
  const std::string ckpt = ::testing::TempDir() + "zipflm_world_change.ckpt";

  CommWorld world(3, world_options(2.0));
  DistributedTrainer trainer(world, char_factory(vocab),
                             trainer_options(char_options()));
  trainer.run_epoch(train, valid, 0);
  trainer.save_state_file(ckpt);
  // Kill rank 1 a few collectives into the next epoch: the world ran
  // nothing before epoch 0, whose ledger holds every call so far.
  const TrafficLedger led = world.total_ledger();
  const std::uint64_t calls_per_rank =
      (led.allreduce_calls + led.reduce_scatter_calls + led.allgather_calls +
       led.alltoall_calls + led.broadcast_calls + led.barrier_calls) /
      3;
  FaultPlan plan;
  plan.events.push_back({.rank = 1, .kind = FaultKind::Kill,
                         .at_collective = calls_per_rank + 10});
  world.inject_faults(plan);
  EXPECT_THROW(trainer.run_epoch(train, valid, 1), CollectiveTimeoutError);
  ASSERT_EQ(world.world_size(), 2);

  EXPECT_THROW(trainer.run_epoch(train, valid, 1), ConfigError);
  trainer.restore_state_file(ckpt);
  const auto stats = trainer.run_epoch(train, valid, 1);
  EXPECT_TRUE(std::isfinite(stats.train_loss));
  EXPECT_TRUE(trainer.replicas_in_sync());
  std::remove(ckpt.c_str());
}

TEST_P(CommFaults, ResilientEpochGivesUpAfterMaxRestarts) {
  const Index vocab = 30;
  const auto train = tiny_corpus(vocab, 1200, 41);
  const auto valid = tiny_corpus(vocab, 300, 42);
  const std::string ckpt =
      ::testing::TempDir() + "zipflm_give_up.ckpt";

  CommWorld world(3, world_options(1.0));
  DistributedTrainer trainer(world, char_factory(vocab),
                             trainer_options(char_options()));
  FaultPlan plan;
  // Two deaths, one per restart attempt: with max_restarts = 1 the
  // second CollectiveTimeoutError must escape.
  plan.events.push_back({.rank = 1, .kind = FaultKind::Kill,
                         .at_collective = 10});
  plan.events.push_back({.rank = 2, .kind = FaultKind::Kill,
                         .at_collective = 30});
  world.inject_faults(plan);

  EXPECT_THROW(trainer.run_epoch_resilient(train, valid, 0, ckpt, 1),
               CollectiveTimeoutError);
  EXPECT_EQ(world.failed_ranks().size(), 2u);
  std::remove(ckpt.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CommFaults,
    ::testing::Combine(
        ::testing::Values(CommBackend::SharedMem, CommBackend::Socket),
        ::testing::Values(WireCodec::None, WireCodec::Packed)),
    [](const ::testing::TestParamInfo<std::tuple<CommBackend, WireCodec>>&
           info) {
      const std::string backend =
          std::get<0>(info.param) == CommBackend::SharedMem ? "SharedMem"
                                                            : "Socket";
      const std::string wire =
          std::get<1>(info.param) == WireCodec::None ? "Raw" : "Coded";
      return backend + wire;
    });

}  // namespace
}  // namespace zipflm
