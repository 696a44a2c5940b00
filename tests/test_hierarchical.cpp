// Sub-communicators and the two-level allreduce.
#include <gtest/gtest.h>

#include "zipflm/comm/hierarchical.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/support/rng.hpp"

namespace zipflm {
namespace {

CommWorld::Options multi_node(int nodes, int gpus_per_node) {
  CommWorld::Options o;
  o.topo = Topology{nodes, gpus_per_node};
  o.topo_set = true;
  return o;
}

TEST(SubComm, NodeCommSpansTheNode) {
  CommWorld world(8, multi_node(2, 4));
  world.run([&](Communicator& comm) {
    Communicator* node = comm.node_comm();
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->world_size(), 4);
    EXPECT_EQ(node->rank(), comm.rank() % 4);
    EXPECT_EQ(node->topology().nodes, 1);
  });
}

TEST(SubComm, LeaderCommOnlyOnLeaders) {
  CommWorld world(8, multi_node(2, 4));
  world.run([&](Communicator& comm) {
    Communicator* leaders = comm.leader_comm();
    if (comm.rank() % 4 == 0) {
      ASSERT_NE(leaders, nullptr);
      EXPECT_EQ(leaders->world_size(), 2);
      EXPECT_EQ(leaders->rank(), comm.rank() / 4);
    } else {
      EXPECT_EQ(leaders, nullptr);
    }
  });
}

TEST(SubComm, SingleNodeHasNoLeaderComm) {
  CommWorld world(4);
  world.run([&](Communicator& comm) {
    EXPECT_EQ(comm.leader_comm(), nullptr);
    ASSERT_NE(comm.node_comm(), nullptr);
    EXPECT_EQ(comm.node_comm()->world_size(), 4);
  });
}

TEST(SubComm, NodeAllReduceSumsWithinNodeOnly) {
  CommWorld world(8, multi_node(2, 4));
  world.run([&](Communicator& comm) {
    std::vector<float> data(16, static_cast<float>(comm.rank() + 1));
    comm.node_comm()->allreduce_sum(std::span<float>(data));
    // Node 0: ranks 0-3 -> sum 10; node 1: ranks 4-7 -> sum 26.
    const float expect = comm.rank() < 4 ? 10.0f : 26.0f;
    for (float v : data) ASSERT_EQ(v, expect);
  });
}

TEST(SubComm, SubGroupsAreReusableAcrossSteps) {
  CommWorld world(8, multi_node(2, 4));
  world.run([&](Communicator& comm) {
    for (int step = 0; step < 5; ++step) {
      std::vector<float> data(3, 1.0f);
      comm.node_comm()->allreduce_sum(std::span<float>(data));
      ASSERT_EQ(data[0], 4.0f);
    }
  });
}

class HierarchicalWorlds
    : public ::testing::TestWithParam<std::pair<int, int>> {};

INSTANTIATE_TEST_SUITE_P(Shapes, HierarchicalWorlds,
                         ::testing::Values(std::pair{1, 4}, std::pair{2, 2},
                                           std::pair{2, 4}, std::pair{3, 2},
                                           std::pair{4, 4}));

TEST_P(HierarchicalWorlds, MatchesFlatAllReduce) {
  const auto [nodes, gpn] = GetParam();
  const int g = nodes * gpn;
  for (const std::size_t n : {1u, 7u, 64u, 333u}) {
    std::vector<std::vector<float>> flat(static_cast<std::size_t>(g));
    std::vector<std::vector<float>> hier(static_cast<std::size_t>(g));
    for (const bool hierarchical : {false, true}) {
      CommWorld world(g, multi_node(nodes, gpn));
      world.run([&](Communicator& comm) {
        std::vector<float> data(n);
        Rng rng(500 + static_cast<std::uint64_t>(comm.rank()));
        for (auto& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        if (hierarchical) {
          hierarchical_allreduce_sum(comm, std::span<float>(data));
          hier[static_cast<std::size_t>(comm.rank())] = data;
        } else {
          comm.allreduce_sum(std::span<float>(data));
          flat[static_cast<std::size_t>(comm.rank())] = data;
        }
      });
    }
    for (int r = 0; r < g; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      ASSERT_EQ(hier[ri].size(), flat[ri].size());
      for (std::size_t i = 0; i < n; ++i) {
        // Different reduction trees: tolerance, not bit equality.
        EXPECT_NEAR(hier[ri][i], flat[ri][i], 1e-4f)
            << "rank " << r << " i " << i;
      }
      // All ranks agree bitwise within one scheme.
      EXPECT_EQ(hier[ri], hier[0]);
    }
  }
}

TEST(Hierarchical, Fp16VariantSums) {
  CommWorld world(4, multi_node(2, 2));
  world.run([&](Communicator& comm) {
    std::vector<Half> data(10, Half(1.5f));
    hierarchical_allreduce_sum(comm, std::span<Half>(data));
    for (const Half h : data) {
      ASSERT_NEAR(static_cast<float>(h), 6.0f, 0.01f);
    }
  });
}

TEST(Hierarchical, WinsWhenIntraNodeLinksAreMuchFaster) {
  // The two-level scheme trades 2.5 extra intra-node passes for cutting
  // the fabric traffic from 2(G-1)/G to 2(N-1)/N of the buffer, so it
  // wins only when intra/inter bandwidth ratio is large (NVLink-class).
  // It *loses* on the paper's PCIe cluster (ratio ~2) — the ablation
  // bench quantifies the crossover; here we pin both sides.
  const std::size_t n = 1 << 18;
  auto measure = [&](double intra_Bps, bool hierarchical) {
    CommWorld::Options o = multi_node(4, 4);
    o.cost.intra_node = LinkParams{3e-6, intra_Bps};
    o.cost.inter_node = LinkParams{2e-6, 6e9};
    CommWorld world(16, o);
    world.run([&](Communicator& comm) {
      std::vector<float> data(n, 1.0f);
      if (hierarchical) {
        hierarchical_allreduce_sum(comm, std::span<float>(data));
      } else {
        comm.allreduce_sum(std::span<float>(data));
      }
    });
    return world.max_simulated_comm_seconds();
  };
  // NVLink-class node (120 GB/s vs 6 GB/s fabric): hierarchy wins.
  EXPECT_LT(measure(120e9, true), measure(120e9, false));
  // PCIe-class node (12.8 GB/s): the flat ring wins on bandwidth.
  EXPECT_GT(measure(12.8e9, true), measure(12.8e9, false));
}

TEST(Hierarchical, SubCommunicatorsMatchAcrossBackendsBitwise) {
  // node_comm / leader_comm run over a rank subset of the world's own
  // transport; the socket mesh must give the bits and the simulated
  // seconds of the in-process default.
  std::vector<std::vector<float>> results[2];
  double sim[2] = {};
  for (const CommBackend backend :
       {CommBackend::SharedMem, CommBackend::Socket}) {
    const auto b = static_cast<std::size_t>(backend == CommBackend::Socket);
    CommWorld::Options o = multi_node(3, 2);
    o.backend = backend;
    CommWorld world(6, o);
    results[b].resize(6);
    world.run([&](Communicator& comm) {
      std::vector<float> data(333);
      Rng rng(700 + static_cast<std::uint64_t>(comm.rank()));
      for (auto& v : data) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (int step = 0; step < 3; ++step) {
        hierarchical_allreduce_sum(comm, std::span<float>(data));
      }
      std::vector<Half> h(17, Half(0.5f));
      hierarchical_allreduce_sum(comm, std::span<Half>(h));
      for (const Half x : h) ASSERT_EQ(static_cast<float>(x), 3.0f);
      results[b][static_cast<std::size_t>(comm.rank())] = data;
    });
    sim[b] = world.max_simulated_comm_seconds();
  }
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(results[0][r], results[1][r]) << "rank " << r;
    EXPECT_EQ(results[0][r], results[0][0]) << "rank " << r;
  }
  EXPECT_EQ(sim[0], sim[1]);
}

TEST(Hierarchical, FallsBackToFlatOnSingleNode) {
  CommWorld world(4);
  world.run([&](Communicator& comm) {
    std::vector<float> data(8, 2.0f);
    hierarchical_allreduce_sum(comm, std::span<float>(data));
    for (float v : data) ASSERT_EQ(v, 8.0f);
  });
}

}  // namespace
}  // namespace zipflm
