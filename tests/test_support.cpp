#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "zipflm/support/error.hpp"
#include "zipflm/support/format.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/support/thread_pool.hpp"

namespace zipflm {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIndexCoversRangeWithoutEscape) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_index(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NormalHasUnitMoments) {
  Rng rng(21);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng a = Rng::fork(100, 0);
  Rng b = Rng::fork(100, 1);
  Rng a2 = Rng::fork(100, 0);
  EXPECT_NE(a(), b());
  Rng a3 = Rng::fork(100, 0);
  EXPECT_EQ(a2(), a3());
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(10000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunksPartitionRange) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_chunks(5000, [&](std::size_t b, std::size_t e) {
    total += e - b;
  });
  EXPECT_EQ(total.load(), 5000u);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Error, CheckThrowsConfigError) {
  EXPECT_THROW(ZIPFLM_CHECK(false, "nope"), ConfigError);
  EXPECT_NO_THROW(ZIPFLM_CHECK(true, "fine"));
}

TEST(Error, OutOfMemoryCarriesSizes) {
  try {
    throw OutOfMemoryError("oom", 100, 42);
  } catch (const OutOfMemoryError& e) {
    EXPECT_EQ(e.requested_bytes(), 100u);
    EXPECT_EQ(e.available_bytes(), 42u);
  }
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1ull << 20), "1.00 MB");
  EXPECT_EQ(format_bytes(static_cast<std::uint64_t>(1.5 * (1ull << 30))),
            "1.50 GB");
}

TEST(Format, Duration) {
  EXPECT_EQ(format_duration(7200.0), "2.00 h");
  EXPECT_EQ(format_duration(90.0), "1.5 min");
  EXPECT_EQ(format_duration(2.5), "2.50 s");
  EXPECT_EQ(format_duration(0.005), "5.00 ms");
}

TEST(Format, Count) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(12288), "12,288");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

}  // namespace
}  // namespace zipflm
