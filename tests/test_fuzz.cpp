// Randomized property tests: collectives against sequential references,
// exchange equivalence over random shapes, end-to-end training
// determinism.
#include <gtest/gtest.h>

#include <map>

#include "zipflm/comm/hierarchical.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/exchange.hpp"
#include "zipflm/core/trainer.hpp"
#include "zipflm/data/markov.hpp"
#include "zipflm/support/rng.hpp"

namespace zipflm {
namespace {

TEST(Fuzz, RandomCollectiveSequencesMatchReferences) {
  Rng meta(0xF022);
  for (int trial = 0; trial < 12; ++trial) {
    const int g = 1 + static_cast<int>(meta.uniform_index(8));
    const int ops = 2 + static_cast<int>(meta.uniform_index(4));
    // Pre-draw the op schedule and inputs so every rank agrees.
    struct OpPlan {
      int kind;  // 0 sum, 1 max, 2 gather, 3 bcast
      std::size_t n;
      int root;
    };
    std::vector<OpPlan> plan;
    for (int o = 0; o < ops; ++o) {
      plan.push_back({static_cast<int>(meta.uniform_index(4)),
                      1 + meta.uniform_index(200),
                      static_cast<int>(meta.uniform_index(
                          static_cast<std::uint64_t>(g)))});
    }
    const std::uint64_t data_seed = meta();

    // Reference: per-op expected outputs.
    auto rank_input = [&](int op, int r, std::size_t n) {
      std::vector<float> v(n);
      Rng rng(data_seed ^ (static_cast<std::uint64_t>(op) << 32) ^
              static_cast<std::uint64_t>(r));
      for (auto& x : v) x = static_cast<float>(rng.uniform(-3.0, 3.0));
      return v;
    };

    CommWorld world(g);
    world.run([&](Communicator& comm) {
      for (int o = 0; o < ops; ++o) {
        const auto& p = plan[static_cast<std::size_t>(o)];
        auto mine = rank_input(o, comm.rank(), p.n);
        switch (p.kind) {
          case 0: {
            comm.allreduce_sum(std::span<float>(mine));
            for (std::size_t i = 0; i < p.n; ++i) {
              double expect = 0.0;
              for (int r = 0; r < g; ++r) expect += rank_input(o, r, p.n)[i];
              ASSERT_NEAR(mine[i], expect, 1e-3) << "sum op " << o;
            }
            break;
          }
          case 1: {
            comm.allreduce_max(std::span<float>(mine));
            for (std::size_t i = 0; i < p.n; ++i) {
              float expect = -1e30f;
              for (int r = 0; r < g; ++r) {
                expect = std::max(expect, rank_input(o, r, p.n)[i]);
              }
              ASSERT_EQ(mine[i], expect) << "max op " << o;
            }
            break;
          }
          case 2: {
            std::vector<float> out;
            comm.allgather(std::span<const float>(mine), out);
            for (int r = 0; r < g; ++r) {
              const auto expect = rank_input(o, r, p.n);
              for (std::size_t i = 0; i < p.n; ++i) {
                ASSERT_EQ(out[static_cast<std::size_t>(r) * p.n + i],
                          expect[i])
                    << "gather op " << o;
              }
            }
            break;
          }
          default: {
            auto data = rank_input(o, p.root, p.n);
            if (comm.rank() != p.root) {
              std::fill(data.begin(), data.end(), 0.0f);
            }
            comm.broadcast(std::span<float>(data), p.root);
            const auto expect = rank_input(o, p.root, p.n);
            ASSERT_EQ(data, expect) << "bcast op " << o;
            break;
          }
        }
      }
    });
  }
}

TEST(Fuzz, ExchangeEquivalenceOverRandomShapes) {
  Rng meta(0xE5C0);
  for (int trial = 0; trial < 10; ++trial) {
    const int g = 1 + static_cast<int>(meta.uniform_index(6));
    const std::size_t k = 1 + meta.uniform_index(60);
    const Index d = 1 + static_cast<Index>(meta.uniform_index(12));
    const Index vocab = 2 + static_cast<Index>(meta.uniform_index(80));
    const std::uint64_t seed = meta();

    auto inputs = [&](int r) {
      Rng rng(seed + static_cast<std::uint64_t>(r));
      std::vector<Index> ids(k);
      for (auto& id : ids) {
        id = static_cast<Index>(
            rng.uniform_index(static_cast<std::uint64_t>(vocab)));
      }
      Tensor delta({static_cast<Index>(k), d});
      for (float& v : delta.data()) {
        v = static_cast<float>(static_cast<int>(rng.uniform_index(9)) - 4);
      }
      return std::pair{ids, delta};
    };

    std::map<int, std::pair<std::vector<Index>, Tensor>> results;
    for (const int which : {0, 1, 2}) {  // dense, unique, table
      CommWorld world(g);
      world.run([&](Communicator& comm) {
        auto [ids, delta] = inputs(comm.rank());
        std::vector<Index> out_ids;
        Tensor out_rows;
        if (which == 0) {
          DenseExchange ex;
          ex.exchange(comm, ids, delta, out_ids, out_rows, nullptr);
        } else if (which == 1) {
          UniqueExchange ex;
          ex.exchange(comm, ids, delta, out_ids, out_rows, nullptr);
        } else {
          TableAllreduceExchange ex(vocab);
          ex.exchange(comm, ids, delta, out_ids, out_rows, nullptr);
        }
        if (comm.rank() == 0) {
          results[which] = {out_ids, out_rows};
        }
      });
    }
    // Integer-valued gradients: all three strategies agree bit-exactly.
    ASSERT_EQ(results[1].first, results[0].first) << "trial " << trial;
    ASSERT_TRUE(results[1].second == results[0].second) << "trial " << trial;
    ASSERT_EQ(results[2].first, results[0].first) << "trial " << trial;
    ASSERT_TRUE(results[2].second == results[0].second) << "trial " << trial;
  }
}

TEST(Fuzz, HierarchicalAllreduceRandomTopologies) {
  Rng meta(0x41E2);
  for (int trial = 0; trial < 8; ++trial) {
    const int nodes = 1 + static_cast<int>(meta.uniform_index(4));
    const int gpn = 1 + static_cast<int>(meta.uniform_index(4));
    const std::size_t n = 1 + meta.uniform_index(300);
    const int g = nodes * gpn;
    CommWorld::Options o;
    o.topo = Topology{nodes, gpn};
    o.topo_set = true;
    CommWorld world(g, o);
    world.run([&](Communicator& comm) {
      std::vector<float> data(n,
                              static_cast<float>(comm.rank() + 1));
      hierarchical_allreduce_sum(comm, std::span<float>(data));
      const float expect = static_cast<float>(g) * (g + 1) / 2.0f;
      for (float v : data) ASSERT_EQ(v, expect);
    });
  }
}

TEST(Determinism, TwoIdenticalTrainingRunsAgreeBitwise) {
  const Index vocab = 50;
  const BigramCorpus corpus(vocab, 8, 77);
  const auto train = corpus.generate(6000, 0);
  const auto valid = corpus.generate(800, 1);

  auto run_once = [&] {
    CommWorld world(3);
    TrainerOptions opt;
    opt.batch = BatchSpec{2, 8};
    opt.samples_per_rank = 10;
    opt.seed_policy = SeedPolicy::ZipfFreq;
    opt.base_lr = 0.2f;
    opt.clip = 5.0f;
    opt.charge_static_memory = false;
    DistributedTrainer trainer(
        world,
        [vocab](int) -> std::unique_ptr<LmModel> {
          WordLmConfig cfg;
          cfg.vocab = vocab;
          cfg.embed_dim = 6;
          cfg.hidden_dim = 8;
          cfg.proj_dim = 6;
          cfg.seed = 31;
          return std::make_unique<WordLm>(cfg);
        },
        opt);
    const auto stats = trainer.run_epoch(train, valid, 0);
    return std::pair{stats.train_loss, stats.valid_loss};
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first) << "training must be bitwise deterministic";
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace zipflm
