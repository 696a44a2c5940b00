// Collective correctness and accounting for the thread-backed runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/support/rng.hpp"

namespace zipflm {
namespace {

// World sizes exercising 1 rank, 2 ranks, odd counts, non-power-of-two,
// and one "multi-node" shape (world 16 => 2 nodes of 8).
class CommWorldSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Worlds, CommWorldSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

// Buffer sizes below/at/above the chunking threshold, including sizes
// not divisible by the world size.
const std::size_t kSizes[] = {1, 2, 7, 64, 129, 1000};

TEST_P(CommWorldSizes, AllReduceSumMatchesSequentialReference) {
  const int g = GetParam();
  CommWorld world(g);
  for (const std::size_t n : kSizes) {
    // Rank r contributes (r+1) * base[i]; expected sum is
    // base[i] * g(g+1)/2.
    std::vector<float> base(n);
    Rng rng(123);
    for (auto& v : base) v = static_cast<float>(rng.uniform(-2.0, 2.0));

    std::vector<std::vector<float>> results(static_cast<std::size_t>(g));
    world.run([&](Communicator& comm) {
      std::vector<float> data(n);
      for (std::size_t i = 0; i < n; ++i) {
        data[i] = base[i] * static_cast<float>(comm.rank() + 1);
      }
      comm.allreduce_sum(std::span<float>(data));
      results[static_cast<std::size_t>(comm.rank())] = data;
    });

    const float factor = static_cast<float>(g) * (g + 1) / 2.0f;
    for (int r = 0; r < g; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(results[static_cast<std::size_t>(r)][i],
                    base[i] * factor, 1e-4f * static_cast<float>(g))
            << "world=" << g << " n=" << n << " rank=" << r << " i=" << i;
      }
    }
    // All ranks must hold bit-identical results.
    for (int r = 1; r < g; ++r) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0]);
    }
  }
}

TEST_P(CommWorldSizes, AllReduceMaxMatchesReference) {
  const int g = GetParam();
  CommWorld world(g);
  const std::size_t n = 257;
  std::vector<std::vector<float>> inputs(static_cast<std::size_t>(g),
                                         std::vector<float>(n));
  Rng rng(99);
  for (auto& in : inputs) {
    for (auto& v : in) v = static_cast<float>(rng.uniform(-5.0, 5.0));
  }
  std::vector<float> expected(n, -1e30f);
  for (const auto& in : inputs) {
    for (std::size_t i = 0; i < n; ++i) expected[i] = std::max(expected[i], in[i]);
  }

  world.run([&](Communicator& comm) {
    auto data = inputs[static_cast<std::size_t>(comm.rank())];
    comm.allreduce_max(std::span<float>(data));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(data[i], expected[i]) << "rank " << comm.rank();
    }
  });
}

TEST_P(CommWorldSizes, AllGatherConcatenatesByRank) {
  const int g = GetParam();
  CommWorld world(g);
  for (const std::size_t n : kSizes) {
    world.run([&](Communicator& comm) {
      std::vector<std::int64_t> local(n);
      for (std::size_t i = 0; i < n; ++i) {
        local[i] = comm.rank() * 1000 + static_cast<std::int64_t>(i);
      }
      std::vector<std::int64_t> out;
      comm.allgather(std::span<const std::int64_t>(local), out);
      ASSERT_EQ(out.size(), n * static_cast<std::size_t>(g));
      for (int r = 0; r < g; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[static_cast<std::size_t>(r) * n + i],
                    r * 1000 + static_cast<std::int64_t>(i));
        }
      }
    });
  }
}

TEST_P(CommWorldSizes, AllGatherVHandlesRankDependentSizes) {
  const int g = GetParam();
  CommWorld world(g);
  world.run([&](Communicator& comm) {
    // Rank r contributes r+1 elements (rank 2 contributes 0 to exercise
    // the empty-block path when the world is large enough).
    std::size_t mine = static_cast<std::size_t>(comm.rank()) + 1;
    if (comm.rank() == 2) mine = 0;
    std::vector<double> local(mine, comm.rank() + 0.5);
    std::vector<double> out;
    std::vector<std::size_t> counts;
    comm.allgatherv(std::span<const double>(local), out, &counts);

    ASSERT_EQ(counts.size(), static_cast<std::size_t>(g));
    std::size_t offset = 0;
    for (int r = 0; r < g; ++r) {
      std::size_t expect_count = static_cast<std::size_t>(r) + 1;
      if (r == 2) expect_count = 0;
      ASSERT_EQ(counts[static_cast<std::size_t>(r)], expect_count);
      for (std::size_t i = 0; i < expect_count; ++i) {
        ASSERT_DOUBLE_EQ(out[offset + i], r + 0.5);
      }
      offset += expect_count;
    }
    ASSERT_EQ(out.size(), offset);
  });
}

TEST_P(CommWorldSizes, BroadcastDeliversRootPayload) {
  const int g = GetParam();
  CommWorld world(g);
  for (int root = 0; root < g; root += std::max(1, g / 3)) {
    world.run([&](Communicator& comm) {
      std::vector<float> data(33, comm.rank() == root ? 7.25f : 0.0f);
      comm.broadcast(std::span<float>(data), root);
      for (float v : data) ASSERT_EQ(v, 7.25f);
    });
  }
}

TEST_P(CommWorldSizes, Fp16AllReduceSumsWithHalfPrecision) {
  const int g = GetParam();
  CommWorld world(g);
  const std::size_t n = 100;
  world.run([&](Communicator& comm) {
    std::vector<Half> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = Half(static_cast<float>(i % 10) + 0.5f);
    }
    comm.allreduce_sum(std::span<Half>(data));
    for (std::size_t i = 0; i < n; ++i) {
      const float expect = (static_cast<float>(i % 10) + 0.5f) * g;
      // Values of this magnitude are exactly representable in binary16
      // up to world sizes used here.
      EXPECT_NEAR(static_cast<float>(data[i]), expect, expect * 0.01f + 0.01f);
    }
  });
}

TEST(CommWorld, MismatchedCollectivesThrowOnEveryRank) {
  CommWorld world(2);
  std::atomic<int> throws{0};
  EXPECT_THROW(
      world.run([&](Communicator& comm) {
        std::vector<float> data(8, 1.0f);
        try {
          if (comm.rank() == 0) {
            comm.allreduce_sum(std::span<float>(data));
          } else {
            comm.allreduce_max(std::span<float>(data));
          }
        } catch (const CollectiveMismatchError&) {
          ++throws;
          throw;
        }
      }),
      CollectiveMismatchError);
  EXPECT_EQ(throws.load(), 2);
}

TEST(CommWorld, MismatchedSizesDetected) {
  CommWorld world(3);
  EXPECT_THROW(world.run([&](Communicator& comm) {
                 std::vector<float> data(
                     comm.rank() == 1 ? 9u : 8u, 1.0f);
                 comm.allreduce_sum(std::span<float>(data));
               }),
               CollectiveMismatchError);
}

TEST(CommWorld, RankExceptionDoesNotDeadlockOtherRanks) {
  CommWorld world(4);
  EXPECT_THROW(world.run([&](Communicator& comm) {
                 if (comm.rank() == 2) {
                   throw ConfigError("simulated rank failure");
                 }
                 // Other ranks block on a barrier; the failed rank's
                 // closed endpoint must free them instead of hanging the
                 // test.
                 comm.barrier();
               }),
               ConfigError);
  // The world must be usable again after a failure.
  world.run([](Communicator& comm) { comm.barrier(); });
}

TEST(CommWorld, LedgerCountsRingAllReduceBytes) {
  const int g = 4;
  CommWorld world(g);
  const std::size_t n = 80;  // divisible by 4: every chunk is 20 floats
  world.run([&](Communicator& comm) {
    std::vector<float> data(n, 1.0f);
    comm.allreduce_sum(std::span<float>(data));
  });
  // Each rank forwards 2*(n - chunk) elements = 2*(80-20)*4 bytes.
  for (int r = 0; r < g; ++r) {
    EXPECT_EQ(world.ledger(r).bytes_sent, 2u * 60u * sizeof(float));
    EXPECT_EQ(world.ledger(r).bytes_received, 2u * 60u * sizeof(float));
    EXPECT_EQ(world.ledger(r).allreduce_calls, 1u);
    EXPECT_GT(world.ledger(r).simulated_comm_seconds, 0.0);
  }
}

TEST(CommWorld, LedgerCountsAllGatherBytesAndScratch) {
  const int g = 5;
  CommWorld world(g);
  const std::size_t n = 12;
  world.run([&](Communicator& comm) {
    std::vector<float> local(n, 1.0f);
    std::vector<float> out;
    comm.allgather(std::span<const float>(local), out);
  });
  for (int r = 0; r < g; ++r) {
    EXPECT_EQ(world.ledger(r).bytes_sent, (g - 1) * n * sizeof(float));
    EXPECT_EQ(world.ledger(r).max_collective_scratch_bytes,
              g * n * sizeof(float));
  }
}

TEST(CommWorld, SimulatedTimeUsesInterNodeLinkAcrossNodes) {
  // 16 ranks => 2 nodes of 8: the ring crosses the slower fabric.
  CommWorld one_node(8);
  CommWorld two_nodes(16);
  const std::size_t n = 1 << 16;

  auto measure = [&](CommWorld& world) {
    world.run([&](Communicator& comm) {
      std::vector<float> data(n, 1.0f);
      comm.allreduce_sum(std::span<float>(data));
    });
    return world.max_simulated_comm_seconds();
  };
  const double t8 = measure(one_node);
  const double t16 = measure(two_nodes);
  // More ranks and a slower bottleneck: strictly more simulated time.
  EXPECT_GT(t16, t8);
}

TEST(CommWorld, BarrierGenerationAdvancesTogether) {
  CommWorld world(6);
  std::atomic<std::uint64_t> sum{0};
  world.run([&](Communicator& comm) {
    for (int i = 0; i < 10; ++i) comm.barrier();
    sum += static_cast<std::uint64_t>(comm.rank());
  });
  EXPECT_EQ(sum.load(), 15u);
}

TEST(Topology, ForWorldFillsWholeNodes) {
  EXPECT_EQ(Topology::for_world(6).nodes, 1);
  EXPECT_EQ(Topology::for_world(6).gpus_per_node, 6);
  EXPECT_EQ(Topology::for_world(8).nodes, 1);
  EXPECT_EQ(Topology::for_world(64).nodes, 8);
  EXPECT_EQ(Topology::for_world(192).nodes, 24);
  EXPECT_THROW(Topology::for_world(12), ConfigError);
}

TEST(Topology, NodeMembership) {
  const Topology t{3, 8};
  EXPECT_EQ(t.world_size(), 24);
  EXPECT_TRUE(t.same_node(0, 7));
  EXPECT_FALSE(t.same_node(7, 8));
  EXPECT_EQ(t.node_of(23), 2);
  EXPECT_TRUE(t.ring_crosses_nodes());
}

TEST(CostModel, ClosedFormsScaleWithSizeAndWorld) {
  const CostModel cm = CostModel::titan_x_cluster();
  const Topology t8 = Topology::for_world(8);
  const Topology t64 = Topology::for_world(64);
  EXPECT_EQ(cm.ring_allreduce_seconds(t8, 0), 0.0);
  EXPECT_GT(cm.ring_allreduce_seconds(t8, 1 << 20), 0.0);
  EXPECT_GT(cm.ring_allreduce_seconds(t8, 2 << 20),
            cm.ring_allreduce_seconds(t8, 1 << 20));
  // Same payload across more, slower links costs more.
  EXPECT_GT(cm.ring_allgather_seconds(t64, 1 << 20),
            cm.ring_allgather_seconds(t8, 1 << 20));
}

}  // namespace
}  // namespace zipflm
