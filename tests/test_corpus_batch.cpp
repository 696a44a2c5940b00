#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "zipflm/data/batch.hpp"
#include "zipflm/data/corpus.hpp"
#include "zipflm/stats/powerlaw.hpp"

namespace zipflm {
namespace {

TEST(Corpus, PresetsMatchTableOne) {
  EXPECT_EQ(CorpusSpec::one_billion_word().total_tokens, 780'000'000ull);
  EXPECT_EQ(CorpusSpec::gutenberg().total_tokens, 1'810'000'000ull);
  EXPECT_EQ(CorpusSpec::amazon_review().total_tokens, 7'010'000'000ull);
  EXPECT_EQ(CorpusSpec::tieba().vocab, 15'437ull);
  EXPECT_TRUE(CorpusSpec::tieba().character_level);
  EXPECT_EQ(CorpusSpec::figure1_corpora().size(), 4u);
}

TEST(Corpus, TiebaSizeRoughly93GB) {
  const auto spec = CorpusSpec::tieba();
  const double gb = static_cast<double>(spec.total_tokens) *
                    spec.bytes_per_token / 1e9;
  EXPECT_NEAR(gb, 93.1, 1.0);
}

TEST(TokenStream, DeterministicPerSeed) {
  const auto spec = CorpusSpec::one_billion_word();
  TokenStream a(spec, 9);
  TokenStream b(spec, 9);
  TokenStream c(spec, 10);
  std::vector<std::int64_t> va, vb, vc;
  a.take(500, va);
  b.take(500, vb);
  c.take(500, vc);
  EXPECT_EQ(va, vb);
  EXPECT_NE(va, vc);
}

TEST(TokenStream, CharPresetStaysInVocabulary) {
  TokenStream s(CorpusSpec::one_billion_char(), 3);
  for (int i = 0; i < 20000; ++i) {
    const auto t = s.next();
    ASSERT_GE(t, 0);
    ASSERT_LT(t, 98);
  }
}

TEST(TypeTokenCurve, MonotoneAndBelowDiagonal) {
  TokenStream s(CorpusSpec::one_billion_word(), 5);
  const auto curve = type_token_curve(s, 100'000);
  ASSERT_GE(curve.size(), 5u);
  std::uint64_t prev_types = 0, prev_tokens = 0;
  for (const auto& p : curve) {
    EXPECT_GT(p.tokens, prev_tokens);
    EXPECT_GE(p.types, prev_types);
    EXPECT_LE(p.types, p.tokens);  // U <= N always
    prev_tokens = p.tokens;
    prev_types = p.types;
  }
}

TEST(TypeTokenCurve, HeapsExponentNearPaperFit) {
  TokenStream s(CorpusSpec::one_billion_word(), 11);
  const auto curve = type_token_curve(s, 1u << 20);
  std::vector<double> xs, ys;
  for (const auto& p : curve) {
    xs.push_back(static_cast<double>(p.tokens));
    ys.push_back(static_cast<double>(p.types));
  }
  const auto fit = fit_power_law(xs, ys);
  EXPECT_NEAR(fit.exponent, 0.64, 0.06);
  EXPECT_GT(fit.r_squared, 0.98);
}

TEST(SyntheticWord, BijectiveSpelling) {
  std::set<std::string> seen;
  for (std::int64_t id = 0; id < 20000; ++id) {
    const auto w = synthetic_word(id);
    ASSERT_FALSE(w.empty());
    for (char c : w) ASSERT_TRUE(c >= 'a' && c <= 'z');
    ASSERT_TRUE(seen.insert(w).second) << "collision at id " << id;
  }
  EXPECT_EQ(synthetic_word(0), "a");
  EXPECT_EQ(synthetic_word(25), "z");
  EXPECT_EQ(synthetic_word(26), "aa");
}

TEST(Split, RatioApproximatelyRespected) {
  std::vector<std::int64_t> ids(1'000'000);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int64_t>(i);
  }
  const auto split = split_tokens(ids, 100, 7);
  EXPECT_EQ(split.train.size() + split.valid.size(), ids.size());
  const double frac =
      static_cast<double>(split.valid.size()) / static_cast<double>(ids.size());
  EXPECT_NEAR(frac, 0.01, 0.004);
  // Deterministic.
  const auto split2 = split_tokens(ids, 100, 7);
  EXPECT_EQ(split.valid, split2.valid);
}

TEST(Split, BlocksStayContiguous) {
  std::vector<std::int64_t> ids(10'000);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int64_t>(i);
  }
  const auto split = split_tokens(ids, 4, 3, 100);
  // Every run of 100 consecutive values is preserved in one part.
  for (std::size_t i = 1; i < split.valid.size(); ++i) {
    const auto delta = split.valid[i] - split.valid[i - 1];
    EXPECT_TRUE(delta == 1 || delta > 1);
    if (split.valid[i] % 100 != 0) {
      EXPECT_EQ(delta, 1);
    }
  }
}

TEST(BatchIterator, ShapesAndShiftByOne) {
  std::vector<std::int64_t> ids(1000);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int64_t>(i);
  }
  BatchSpec spec{4, 5};
  BatchIterator it(ids, spec, 0, 1);
  EXPECT_GT(it.steps(), 0);
  Batch b;
  ASSERT_TRUE(it.next(b));
  EXPECT_EQ(b.batch_size, 4);
  EXPECT_EQ(b.seq_len, 5);
  for (std::int64_t row = 0; row < 4; ++row) {
    for (std::int64_t t = 0; t < 5; ++t) {
      EXPECT_EQ(b.target(row, t), b.input(row, t) + 1)
          << "targets must be inputs shifted by one";
    }
  }
  // Second batch continues each substream where the first left off.
  const auto first_end = b.input(0, 4);
  ASSERT_TRUE(it.next(b));
  EXPECT_EQ(b.input(0, 0), first_end + 1);
}

TEST(BatchIterator, RankShardsAreDisjoint) {
  std::vector<std::int64_t> ids(1200);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int64_t>(i);
  }
  BatchSpec spec{2, 4};
  std::unordered_set<std::int64_t> seen;
  for (int rank = 0; rank < 3; ++rank) {
    BatchIterator it(ids, spec, rank, 3);
    Batch b;
    while (it.next(b)) {
      for (const auto v : b.inputs) {
        EXPECT_TRUE(seen.insert(v).second)
            << "token " << v << " appears in two rank shards";
      }
    }
  }
  EXPECT_GT(seen.size(), 900u);
}

TEST(BatchIterator, SameStepCountOnEveryRank) {
  std::vector<std::int64_t> ids(997);  // awkward size
  BatchSpec spec{3, 7};
  const BatchIterator it0(ids, spec, 0, 4);
  for (int rank = 1; rank < 4; ++rank) {
    const BatchIterator it(ids, spec, rank, 4);
    EXPECT_EQ(it.steps(), it0.steps());
  }
}

TEST(BatchIterator, TooSmallCorpusYieldsNoBatches) {
  std::vector<std::int64_t> ids(5);
  BatchSpec spec{4, 20};
  BatchIterator it(ids, spec, 0, 2);
  EXPECT_EQ(it.steps(), 0);
  Batch b;
  EXPECT_FALSE(it.next(b));
}

TEST(BatchIterator, ResetReplaysIdentically) {
  std::vector<std::int64_t> ids(500);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<std::int64_t>(i * 3);
  }
  BatchSpec spec{2, 6};
  BatchIterator it(ids, spec, 0, 1);
  Batch b1, b2;
  ASSERT_TRUE(it.next(b1));
  it.reset();
  ASSERT_TRUE(it.next(b2));
  EXPECT_EQ(b1.inputs, b2.inputs);
  EXPECT_EQ(b1.targets, b2.targets);
}

}  // namespace
}  // namespace zipflm
