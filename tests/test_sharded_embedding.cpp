// Row-sharded embedding tables (ROADMAP item 4): the alltoallv
// collective, the ShardedEmbedding layer, the pull/push exchange, and
// the sharded trainer end to end.
//
// The load-bearing oracle: replicated mode.  At small V a sharded run
// must produce `==` losses and bitwise-identical assembled weights on
// every backend at G in {1, 4}, because
//  * shard init is a bitwise slice of the replicated init stream,
//  * the pull moves owner bytes verbatim, and
//  * the push's owner-side fold replays the replicated ring-allreduce
//    addition tree operand for operand (DESIGN.md §10).
// Plus the checkpoint story: sharded checkpoints store the canonical
// replicated layout, so resume is bitwise and G=4 -> G=2 re-sharding is
// just re-slicing on load.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "zipflm/comm/process_group.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/sharded_exchange.hpp"
#include "zipflm/core/trainer.hpp"
#include "zipflm/data/corpus.hpp"
#include "zipflm/nn/embedding.hpp"
#include "zipflm/nn/sharded_embedding.hpp"

namespace zipflm {
namespace {

// -- Shard geometry ---------------------------------------------------

TEST(ShardGeometry, SplitCoversVocabAndOwnerOfInvertsIt) {
  for (const Index vocab : {Index{10}, Index{97}, Index{256}}) {
    for (const int g : {1, 2, 3, 4, 7}) {
      if (vocab < g) continue;
      EXPECT_EQ(shard_row_begin(vocab, 0, g), 0);
      EXPECT_EQ(shard_row_begin(vocab, g, g), vocab);
      Rng rng(1);
      for (int r = 0; r < g; ++r) {
        ShardedEmbedding emb(vocab, 4, r, g, rng);
        EXPECT_EQ(emb.row_begin(), shard_row_begin(vocab, r, g));
        EXPECT_EQ(emb.row_end(), shard_row_begin(vocab, r + 1, g));
        EXPECT_GE(emb.owned_rows(), 1);
        for (Index id = emb.row_begin(); id < emb.row_end(); ++id) {
          EXPECT_EQ(emb.owner_of(id), r) << "V=" << vocab << " G=" << g;
          EXPECT_TRUE(emb.owns(id));
        }
      }
    }
  }
}

TEST(ShardedEmbeddingInit, ShardsAreBitwiseSlicesOfReplicatedInit) {
  const Index vocab = 37;
  const Index dim = 6;
  const std::uint64_t seed = 2024;
  Rng ref_rng = Rng::fork(seed, 11);
  Embedding replicated(vocab, dim, ref_rng);
  const std::span<const float> table = replicated.param().value.data();

  for (const int g : {1, 2, 4}) {
    for (int r = 0; r < g; ++r) {
      Rng rng = Rng::fork(seed, 11);
      ShardedEmbedding shard(vocab, dim, r, g, rng);
      const std::span<const float> own = shard.param().value.data();
      ASSERT_EQ(own.size(),
                static_cast<std::size_t>(shard.owned_rows() * dim));
      EXPECT_EQ(0, std::memcmp(own.data(),
                               table.data() + shard.row_begin() * dim,
                               own.size() * sizeof(float)))
          << "shard " << r << "/" << g << " is not a slice of the "
          << "replicated init";
    }
  }
}

// -- The alltoallv collective ----------------------------------------

struct A2AOutcome {
  std::vector<float> out;
  std::vector<std::size_t> counts;
  TrafficLedger ledger;
};

std::vector<A2AOutcome> run_alltoallv(CommBackend backend, int gpus) {
  CommWorld::Options wopt;
  wopt.backend = backend;
  CommWorld world(gpus, wopt);
  std::vector<A2AOutcome> outs(static_cast<std::size_t>(gpus));
  world.run([&](Communicator& comm) {
    const int r = comm.rank();
    const int g = comm.world_size();
    // Rank r sends (r + d) % g floats to destination d — uneven blocks,
    // including empty ones, every pair distinct.
    std::vector<float> send;
    std::vector<std::size_t> counts(static_cast<std::size_t>(g));
    for (int d = 0; d < g; ++d) {
      const std::size_t n = static_cast<std::size_t>((r + d) % g);
      counts[static_cast<std::size_t>(d)] = n;
      for (std::size_t j = 0; j < n; ++j) {
        send.push_back(static_cast<float>(r) + 0.001f * static_cast<float>(d) +
                       0.1f * static_cast<float>(j));
      }
    }
    auto& o = outs[static_cast<std::size_t>(r)];
    comm.alltoallv(std::span<const float>(send), counts, o.out, o.counts);
  });
  for (int r = 0; r < gpus; ++r) {
    outs[static_cast<std::size_t>(r)].ledger = world.ledger(r);
  }
  return outs;
}

TEST(AllToAllV, MovesExactBlocksOnEveryBackend) {
  const int gpus = 4;
  for (const CommBackend backend :
       {CommBackend::SharedMem, CommBackend::InProcNet, CommBackend::Socket}) {
    const auto outs = run_alltoallv(backend, gpus);
    for (int r = 0; r < gpus; ++r) {
      const auto& o = outs[static_cast<std::size_t>(r)];
      // Receive counts mirror the senders' formula...
      ASSERT_EQ(o.counts.size(), static_cast<std::size_t>(gpus));
      std::size_t total = 0;
      for (int s = 0; s < gpus; ++s) {
        EXPECT_EQ(o.counts[static_cast<std::size_t>(s)],
                  static_cast<std::size_t>((s + r) % gpus));
        total += o.counts[static_cast<std::size_t>(s)];
      }
      ASSERT_EQ(o.out.size(), total);
      // ...and every element is the exact float source s staged for us.
      std::size_t at = 0;
      for (int s = 0; s < gpus; ++s) {
        const std::size_t n = o.counts[static_cast<std::size_t>(s)];
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(o.out[at++], static_cast<float>(s) +
                                     0.001f * static_cast<float>(r) +
                                     0.1f * static_cast<float>(j));
        }
      }
      EXPECT_EQ(o.ledger.alltoall_calls, 1u);
    }
  }
}

TEST(AllToAllV, LedgerAndPayloadsIdenticalAcrossBackends) {
  for (const int gpus : {1, 4}) {
    const auto ref = run_alltoallv(CommBackend::SharedMem, gpus);
    for (const CommBackend backend :
         {CommBackend::InProcNet, CommBackend::Socket}) {
      const auto got = run_alltoallv(backend, gpus);
      for (int r = 0; r < gpus; ++r) {
        const auto& want = ref[static_cast<std::size_t>(r)];
        const auto& have = got[static_cast<std::size_t>(r)];
        EXPECT_EQ(want.out, have.out);
        EXPECT_EQ(want.counts, have.counts);
        EXPECT_EQ(want.ledger.bytes_sent, have.ledger.bytes_sent);
        EXPECT_EQ(want.ledger.bytes_received, have.ledger.bytes_received);
        EXPECT_EQ(want.ledger.alltoall_calls, have.ledger.alltoall_calls);
        EXPECT_EQ(want.ledger.max_alltoall_payload_bytes,
                  have.ledger.max_alltoall_payload_bytes);
        EXPECT_EQ(want.ledger.max_collective_scratch_bytes,
                  have.ledger.max_collective_scratch_bytes);
        EXPECT_EQ(want.ledger.simulated_comm_seconds,
                  have.ledger.simulated_comm_seconds);
        if (gpus > 1) {
          EXPECT_GT(have.ledger.wire_bytes_sent, 0u);
          EXPECT_EQ(want.ledger.wire_bytes_sent, 0u);
        }
      }
    }
  }
}

// -- Pull/push exchange against the replicated oracle -----------------

std::vector<Index> tiny_corpus(Index vocab, std::size_t n,
                               std::uint64_t seed) {
  ZipfSampler sampler(static_cast<std::uint64_t>(vocab), 1.1);
  Rng rng(seed);
  std::vector<Index> ids(n);
  for (auto& id : ids) id = static_cast<Index>(sampler.sample(rng) - 1);
  return ids;
}

TEST(ShardedExchange, PullInstallsOwnerBytesVerbatim) {
  const Index vocab = 29;
  const Index dim = 5;
  const int gpus = 4;
  Rng ref_rng = Rng::fork(7, 11);
  Embedding replicated(vocab, dim, ref_rng);
  const std::span<const float> table = replicated.param().value.data();

  CommWorld world(gpus);
  std::vector<std::unique_ptr<ShardedEmbedding>> shards;
  for (int r = 0; r < gpus; ++r) {
    Rng rng = Rng::fork(7, 11);
    shards.push_back(
        std::make_unique<ShardedEmbedding>(vocab, dim, r, gpus, rng));
  }
  world.run([&](Communicator& comm) {
    const int r = comm.rank();
    ShardedEmbeddingExchange ex(vocab, dim);
    const auto batch = tiny_corpus(vocab, 40, 100 + static_cast<unsigned>(r));
    ShardedEmbedding& emb = *shards[static_cast<std::size_t>(r)];
    ex.pull(comm, emb, batch);
    ASSERT_TRUE(emb.cache_ready());
    // Every pulled row must be the owner's bytes — i.e. the replicated
    // table's row — and forward must reproduce them per token.
    Tensor got({static_cast<Index>(batch.size()), dim});
    emb.forward(batch, got);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(got.data().data() + i * dim,
                               table.data() + batch[i] * dim,
                               static_cast<std::size_t>(dim) * sizeof(float)))
          << "rank " << r << " token " << i;
    }
  });
}

/// Per-rank synthetic gradient: K token ids (with repeats) + K x D delta.
void synth_grad(Index vocab, Index dim, int rank, std::vector<Index>& ids,
                Tensor& delta) {
  ids = tiny_corpus(vocab, 24, 500 + static_cast<unsigned>(rank));
  delta = Tensor({static_cast<Index>(ids.size()), dim});
  Rng rng(900 + static_cast<unsigned>(rank));
  for (float& v : delta.data()) {
    v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
}

TEST(ShardedExchange, PushMatchesReplicatedUniqueExchangeBitwise) {
  const Index vocab = 31;
  const Index dim = 7;  // deliberately not a multiple of G
  for (const int gpus : {1, 4}) {
    // Replicated oracle: UniqueExchange over the same per-rank grads.
    std::vector<std::vector<Index>> oracle_ids(
        static_cast<std::size_t>(gpus));
    std::vector<Tensor> oracle_rows(static_cast<std::size_t>(gpus));
    {
      CommWorld world(gpus);
      world.run([&](Communicator& comm) {
        const int r = comm.rank();
        std::vector<Index> ids;
        Tensor delta;
        synth_grad(vocab, dim, r, ids, delta);
        UniqueExchange ex((ExchangeOptions()));
        ex.exchange(comm, ids, delta,
                    oracle_ids[static_cast<std::size_t>(r)],
                    oracle_rows[static_cast<std::size_t>(r)]);
      });
    }
    // Sharded: same grads, owner-side fold.
    CommWorld world(gpus);
    world.run([&](Communicator& comm) {
      const int r = comm.rank();
      std::vector<Index> ids;
      Tensor delta;
      synth_grad(vocab, dim, r, ids, delta);
      ShardedEmbeddingExchange ex(vocab, dim);
      std::vector<Index> out_ids;
      Tensor out_rows;
      ex.exchange(comm, ids, delta, out_ids, out_rows);

      // out_ids must be exactly the owned slice of the oracle's Î, and
      // every owned row bitwise the oracle's reduction.
      const auto& oids = oracle_ids[static_cast<std::size_t>(r)];
      const auto& orows = oracle_rows[static_cast<std::size_t>(r)];
      const Index lo = shard_row_begin(vocab, r, gpus);
      const Index hi = shard_row_begin(vocab, r + 1, gpus);
      std::size_t checked = 0;
      for (std::size_t i = 0; i < oids.size(); ++i) {
        if (oids[i] < lo || oids[i] >= hi) continue;
        ASSERT_LT(checked, out_ids.size());
        EXPECT_EQ(out_ids[checked], oids[i]);
        EXPECT_EQ(0,
                  std::memcmp(out_rows.data().data() + checked * dim,
                              orows.data().data() + i * dim,
                              static_cast<std::size_t>(dim) * sizeof(float)))
            << "rank " << r << " row " << oids[i] << " diverged at G="
            << gpus;
        ++checked;
      }
      EXPECT_EQ(checked, out_ids.size());
    });
  }
}

// -- Trainer parity: sharded vs replicated, every backend -------------

TrainerOptions char_options() {
  TrainerOptions opt;
  opt.batch = BatchSpec{2, 6};
  opt.base_lr = 5e-3f;
  opt.lr_decay = 1.0f;
  opt.clip = 5.0f;
  opt.use_adam = true;
  opt.charge_static_memory = false;
  return opt;
}

DistributedTrainer::ModelFactory char_factory(Index vocab, int shard_world) {
  return [vocab, shard_world](int rank) -> std::unique_ptr<LmModel> {
    CharLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 10;
    cfg.depth = 2;
    cfg.dropout = 0.1f;  // exercises the per-rank RNG streams too
    cfg.seed = 99;
    cfg.shard_rank = rank;
    cfg.shard_world = shard_world;  // 0 = replicated
    return std::make_unique<CharLm>(cfg);
  };
}

/// The input table as raw bytes: the replicated table, or the shard
/// slices stitched back together in rank order.
std::vector<unsigned char> assembled_table_bytes(DistributedTrainer& trainer,
                                                 int gpus) {
  std::vector<unsigned char> out;
  if (trainer.model(0).sharded_input() == nullptr) {
    const auto data = trainer.model(0).input_embedding_param().value.data();
    const auto* b = reinterpret_cast<const unsigned char*>(data.data());
    out.assign(b, b + data.size() * sizeof(float));
    return out;
  }
  for (int r = 0; r < gpus; ++r) {
    const auto data = trainer.model(r).sharded_input()->param().value.data();
    const auto* b = reinterpret_cast<const unsigned char*>(data.data());
    out.insert(out.end(), b, b + data.size() * sizeof(float));
  }
  return out;
}

/// Dense (non-embedding) parameters of replica 0 as raw bytes.
std::vector<unsigned char> dense_bytes(DistributedTrainer& trainer) {
  std::vector<unsigned char> out;
  for (Param* p : trainer.model(0).dense_params()) {
    const auto data = p->value.data();
    const auto* b = reinterpret_cast<const unsigned char*>(data.data());
    out.insert(out.end(), b, b + data.size() * sizeof(float));
  }
  return out;
}

void expect_sharded_matches_replicated(int gpus, WireCodec codec,
                                       bool index_codec, bool overlapped,
                                       std::initializer_list<CommBackend>
                                           backends) {
  const Index vocab = 50;
  const auto train = tiny_corpus(vocab, 2400, 7);
  const auto valid = tiny_corpus(vocab, 400, 8);

  // Replicated oracle on the shared-memory backend.
  double ref_train = 0.0, ref_valid = 0.0;
  std::vector<unsigned char> ref_table, ref_dense;
  {
    CommWorld world(gpus);
    DistributedTrainer trainer(world, char_factory(vocab, 0),
                               char_options());
    EpochStats last{};
    for (int e = 0; e < 2; ++e) last = trainer.run_epoch(train, valid, e);
    ref_train = last.train_loss;
    ref_valid = last.valid_loss;
    ref_table = assembled_table_bytes(trainer, gpus);
    ref_dense = dense_bytes(trainer);
  }

  for (const CommBackend backend : backends) {
    CommWorld::Options wopt;
    wopt.backend = backend;
    CommWorld world(gpus, wopt);
    TrainerOptions opt = char_options();
    opt.shard_embedding = true;
    opt.wire_codec = codec;
    opt.index_codec = index_codec;
    opt.overlapped_exchange = overlapped;
    opt.overlap_bucket_bytes = 512;
    DistributedTrainer trainer(world, char_factory(vocab, gpus), opt);

    EpochStats last{};
    for (int e = 0; e < 2; ++e) last = trainer.run_epoch(train, valid, e);
    EXPECT_TRUE(trainer.replicas_in_sync());

    EXPECT_EQ(last.train_loss, ref_train)
        << "sharded train loss diverged, G=" << gpus;
    EXPECT_EQ(last.valid_loss, ref_valid)
        << "sharded valid loss diverged, G=" << gpus;
    EXPECT_EQ(assembled_table_bytes(trainer, gpus), ref_table)
        << "assembled sharded table != replicated table, G=" << gpus;
    EXPECT_EQ(dense_bytes(trainer), ref_dense);
    if (gpus > 1) {
      EXPECT_GT(world.total_ledger().alltoall_calls, 0u);
    }
  }
}

TEST(ShardedTrainer, MatchesReplicatedBitwiseG1AllBackends) {
  expect_sharded_matches_replicated(
      1, WireCodec::None, false, false,
      {CommBackend::SharedMem, CommBackend::InProcNet, CommBackend::Socket});
}

TEST(ShardedTrainer, MatchesReplicatedBitwiseG4AllBackends) {
  expect_sharded_matches_replicated(
      4, WireCodec::None, false, false,
      {CommBackend::SharedMem, CommBackend::InProcNet, CommBackend::Socket});
}

TEST(ShardedTrainer, PackedRowCodecStaysBitwise) {
  // Packed is lossless, so the coded sharded run still equals the raw
  // replicated oracle; the index legs ride the varint codec.
  expect_sharded_matches_replicated(4, WireCodec::Packed, true, false,
                                    {CommBackend::SharedMem,
                                     CommBackend::Socket});
}

TEST(ShardedTrainer, OverlappedExchangeStaysBitwise) {
  expect_sharded_matches_replicated(4, WireCodec::None, false, true,
                                    {CommBackend::SharedMem});
}

TEST(ShardedTrainer, CorruptPushSkipsTheSameStepOnEveryRank) {
  // Gradient rows reach only their owners, so a poisoned push is seen by
  // some ranks and not others; the overflow vote makes every rank skip
  // the same step, and the replicas never diverge.  Every token lies in
  // rank 0's rows [0, 12), so only rank 0 receives rank 1's push.
  const Index vocab = 50;
  const int gpus = 4;
  const auto train = tiny_corpus(12, 1200, 23);
  const auto valid = tiny_corpus(12, 300, 24);
  for (const CommBackend backend :
       {CommBackend::SharedMem, CommBackend::Socket}) {
    CommWorld::Options wopt;
    wopt.backend = backend;
    CommWorld world(gpus, wopt);
    TrainerOptions opt = char_options();
    opt.shard_embedding = true;
    opt.dynamic_loss_scale = true;
    DistributedTrainer trainer(world, char_factory(vocab, gpus), opt);

    // Step 0 runs, in order: the row pull (id and row alltoallv), one
    // reduce-scatter per dense parameter, the id allgatherv, then the
    // push's id alltoallv and row alltoallv — the collective poisoned.
    const auto dense = trainer.model(0).dense_params().size();
    FaultPlan plan;
    plan.events.push_back({.rank = 1, .kind = FaultKind::Corrupt,
                           .at_collective = 2 + dense + 2});
    world.inject_faults(plan);

    const EpochStats stats = trainer.run_epoch(train, valid, 0);
    EXPECT_EQ(stats.skipped_steps, 1u);
    EXPECT_GT(stats.steps, stats.skipped_steps);
    EXPECT_TRUE(trainer.replicas_in_sync());
    EXPECT_TRUE(std::isfinite(stats.train_loss));
    EXPECT_TRUE(std::isfinite(stats.valid_loss));
  }
}

// -- Sharded checkpoints ----------------------------------------------

TEST(ShardedCheckpoint, KillResumeMidEpochIsBitwiseIdentical) {
  const Index vocab = 50;
  // One "epoch" of data, interrupted half way: the straight run sees
  // A then B back to back; the killed run trains A, checkpoints, dies,
  // restores into a fresh world and trains B.
  const auto part_a = tiny_corpus(vocab, 1200, 7);
  const auto part_b = tiny_corpus(vocab, 1200, 9);
  const auto valid = tiny_corpus(vocab, 400, 8);
  const int gpus = 4;

  TrainerOptions opt = char_options();
  opt.shard_embedding = true;

  std::vector<unsigned char> want_table, want_dense;
  double want_valid = 0.0;
  {
    CommWorld world(gpus);
    DistributedTrainer straight(world, char_factory(vocab, gpus), opt);
    straight.run_epoch(part_a, valid, 0);
    const EpochStats s = straight.run_epoch(part_b, valid, 1);
    want_table = assembled_table_bytes(straight, gpus);
    want_dense = dense_bytes(straight);
    want_valid = s.valid_loss;
  }

  std::stringstream ckpt(std::ios::in | std::ios::out | std::ios::binary);
  {
    CommWorld world(gpus);
    DistributedTrainer before(world, char_factory(vocab, gpus), opt);
    before.run_epoch(part_a, valid, 0);
    before.save_state(ckpt);
  }  // the "kill": world and trainer destroyed

  CommWorld world(gpus);
  DistributedTrainer resumed(world, char_factory(vocab, gpus), opt);
  resumed.restore_state(ckpt);
  EXPECT_TRUE(resumed.replicas_in_sync());
  const EpochStats s = resumed.run_epoch(part_b, valid, 1);

  EXPECT_EQ(s.valid_loss, want_valid);
  EXPECT_EQ(assembled_table_bytes(resumed, gpus), want_table)
      << "resumed sharded run diverged from the uninterrupted one";
  EXPECT_EQ(dense_bytes(resumed), want_dense);
}

TEST(ShardedCheckpoint, G4CheckpointReshardsIntoG2AndIntoReplicated) {
  const Index vocab = 50;
  const auto train = tiny_corpus(vocab, 1200, 7);
  const auto valid = tiny_corpus(vocab, 400, 8);

  TrainerOptions opt4 = char_options();
  opt4.shard_embedding = true;

  std::stringstream ckpt(std::ios::in | std::ios::out | std::ios::binary);
  std::vector<unsigned char> want_table, want_dense;
  {
    CommWorld world(4);
    DistributedTrainer t4(world, char_factory(vocab, 4), opt4);
    t4.run_epoch(train, valid, 0);
    want_table = assembled_table_bytes(t4, 4);
    want_dense = dense_bytes(t4);
    t4.save_state(ckpt);
  }
  const std::string raw = ckpt.str();

  // G=2 sharded world: owned slices re-cut from the canonical table.
  {
    std::istringstream in(raw, std::ios::binary);
    CommWorld world(2);
    TrainerOptions opt2 = char_options();
    opt2.shard_embedding = true;
    DistributedTrainer t2(world, char_factory(vocab, 2), opt2);
    EXPECT_THROW(
        {
          std::istringstream strict(raw, std::ios::binary);
          t2.restore_state(strict);  // rank count mismatch must be loud
        },
        Error);
    t2.restore_state(in, /*allow_world_resize=*/true);
    EXPECT_EQ(assembled_table_bytes(t2, 2), want_table)
        << "G=2 re-shard lost table bytes";
    EXPECT_EQ(dense_bytes(t2), want_dense);
    // And the re-sharded trainer must still train.
    const EpochStats s = t2.run_epoch(train, valid, 1);
    EXPECT_TRUE(std::isfinite(s.train_loss));
    EXPECT_TRUE(t2.replicas_in_sync());
  }

  // Replicated world: the canonical layout loads without translation.
  {
    std::istringstream in(raw, std::ios::binary);
    CommWorld world(2);
    DistributedTrainer rep(world, char_factory(vocab, 0), char_options());
    rep.restore_state(in, /*allow_world_resize=*/true);
    EXPECT_EQ(assembled_table_bytes(rep, 2), want_table);
    EXPECT_EQ(dense_bytes(rep), want_dense);
  }
}

}  // namespace
}  // namespace zipflm
