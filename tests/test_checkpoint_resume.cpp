// Exact resume: an interrupted-and-restored run must be bitwise
// identical to one that never stopped — same losses, same weights, same
// optimizer moments, same dropout masks.  Plus the failure modes: a
// truncated, bit-flipped, renamed-parameter, or wrong-version file must
// be rejected loudly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "zipflm/core/checkpoint.hpp"
#include "zipflm/core/trainer.hpp"
#include "zipflm/data/corpus.hpp"
#include "zipflm/support/error.hpp"
#include "zipflm/support/serialize.hpp"

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

// Dropout is on so exact resume must also replay the RNG streams: a
// restored run that re-seeded dropout would diverge within one step.
DistributedTrainer::ModelFactory word_factory(Index vocab) {
  return [vocab](int /*rank*/) -> std::unique_ptr<LmModel> {
    WordLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 12;
    cfg.proj_dim = 8;
    cfg.dropout = 0.1f;
    cfg.seed = 1234;
    return std::make_unique<WordLm>(cfg);
  };
}

DistributedTrainer::ModelFactory char_factory(Index vocab) {
  return [vocab](int /*rank*/) -> std::unique_ptr<LmModel> {
    CharLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 10;
    cfg.depth = 2;
    cfg.dropout = 0.1f;
    cfg.seed = 99;
    return std::make_unique<CharLm>(cfg);
  };
}

bool params_bit_identical(LmModel& a, LmModel& b) {
  const auto pa = a.all_params();
  const auto pb = b.all_params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto da = pa[i]->value.data();
    const auto db = pb[i]->value.data();
    if (da.size() != db.size()) return false;
    if (std::memcmp(da.data(), db.data(), da.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// Runs `epochs` epochs uninterrupted, returns per-epoch stats.
std::vector<EpochStats> run_straight(DistributedTrainer& trainer,
                                     std::span<const Index> train,
                                     std::span<const Index> valid,
                                     int first_epoch, int epochs) {
  std::vector<EpochStats> out;
  for (int e = first_epoch; e < first_epoch + epochs; ++e) {
    out.push_back(trainer.run_epoch(train, valid, e));
  }
  return out;
}

TEST(CheckpointResume, WordLmResumeIsBitwiseIdenticalToStraightRun) {
  const Index vocab = 60;
  const auto train = tiny_corpus(vocab, 3000, 3);
  const auto valid = tiny_corpus(vocab, 600, 4);

  TrainerOptions opt = tiny_options();
  opt.samples_per_rank = 16;
  opt.seed_policy = SeedPolicy::ZipfFreq;
  opt.base_lr = 0.3f;

  // Reference: 4 epochs, never interrupted.
  CommWorld world_a(2);
  DistributedTrainer straight(world_a, word_factory(vocab), opt);
  const auto want = run_straight(straight, train, valid, 0, 4);

  // "Crash" after epoch 2: save the full state, throw the trainer away.
  CommWorld world_b(2);
  DistributedTrainer before(world_b, word_factory(vocab), opt);
  run_straight(before, train, valid, 0, 2);
  std::stringstream ckpt(std::ios::in | std::ios::out | std::ios::binary);
  before.save_state(ckpt);
  const std::uint64_t step_at_save = before.global_step();

  // Fresh process: new world, new trainer, restore, continue.
  CommWorld world_c(2);
  DistributedTrainer resumed(world_c, word_factory(vocab), opt);
  resumed.restore_state(ckpt);
  EXPECT_EQ(resumed.global_step(), step_at_save);
  EXPECT_EQ(resumed.epochs_completed(), 2u);
  EXPECT_TRUE(resumed.replicas_in_sync());

  const auto got = run_straight(resumed, train, valid, 2, 2);
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].train_loss, want[i + 2].train_loss)
        << "epoch " << i + 2 << " train loss diverged after resume";
    EXPECT_EQ(got[i].valid_loss, want[i + 2].valid_loss)
        << "epoch " << i + 2 << " valid loss diverged after resume";
  }
  EXPECT_EQ(resumed.global_step(), straight.global_step());
  EXPECT_TRUE(params_bit_identical(straight.model(0), resumed.model(0)));
}

TEST(CheckpointResume, CharLmFp16AdamResumeViaFileIsBitwiseIdentical) {
  const Index vocab = 30;
  const auto train = tiny_corpus(vocab, 3000, 1);
  const auto valid = tiny_corpus(vocab, 600, 2);

  TrainerOptions opt = tiny_options();
  opt.use_adam = true;
  opt.base_lr = 5e-3f;
  opt.wire = WirePrecision::FP16;
  opt.dynamic_loss_scale = true;  // scaler state must survive the resume

  CommWorld world_a(2);
  DistributedTrainer straight(world_a, char_factory(vocab), opt);
  const auto want = run_straight(straight, train, valid, 0, 4);

  const std::string path = ::testing::TempDir() + "zipflm_resume_char.ckpt";
  CommWorld world_b(2);
  DistributedTrainer before(world_b, char_factory(vocab), opt);
  run_straight(before, train, valid, 0, 2);
  before.save_state_file(path);
  // Atomic save: the temp file must not outlive a successful rename.
  EXPECT_FALSE(std::ifstream(path + ".tmp").is_open());

  CommWorld world_c(2);
  DistributedTrainer resumed(world_c, char_factory(vocab), opt);
  resumed.restore_state_file(path);
  const auto got = run_straight(resumed, train, valid, 2, 2);
  ASSERT_EQ(got.size(), 2u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].train_loss, want[i + 2].train_loss);
    EXPECT_EQ(got[i].valid_loss, want[i + 2].valid_loss);
  }
  EXPECT_TRUE(params_bit_identical(straight.model(1), resumed.model(1)));
  std::remove(path.c_str());
}

TEST(CheckpointResume, SaveOverwritesAtomically) {
  const Index vocab = 30;
  const auto train = tiny_corpus(vocab, 600, 7);
  const auto valid = tiny_corpus(vocab, 200, 8);

  CommWorld world(2);
  TrainerOptions opt = tiny_options();
  opt.use_adam = true;
  opt.base_lr = 5e-3f;
  DistributedTrainer trainer(world, char_factory(vocab), opt);
  trainer.run_epoch(train, valid, 0);

  const std::string path = ::testing::TempDir() + "zipflm_atomic.ckpt";
  {  // Pre-existing garbage at the destination must not confuse save.
    std::ofstream junk(path, std::ios::binary | std::ios::trunc);
    junk << "not a checkpoint";
  }
  trainer.save_state_file(path);
  EXPECT_FALSE(std::ifstream(path + ".tmp").is_open());

  CommWorld world2(2);
  DistributedTrainer fresh(world2, char_factory(vocab), opt);
  fresh.restore_state_file(path);  // must parse cleanly
  EXPECT_EQ(fresh.global_step(), trainer.global_step());
  std::remove(path.c_str());
}

TEST(CheckpointResume, WeightsOnlyCheckpointCannotResume) {
  const Index vocab = 30;
  CommWorld world(2);
  TrainerOptions opt = tiny_options();
  opt.use_adam = true;
  DistributedTrainer trainer(world, char_factory(vocab), opt);

  // A plain weights checkpoint (no TrainState section) loads as a model
  // but is not enough for exact resume.
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_checkpoint(buffer, trainer.model(0));

  TrainState train;
  auto probe = char_factory(vocab)(0);
  load_checkpoint(buffer, *probe, &train);
  EXPECT_FALSE(train.present);

  buffer.clear();
  buffer.seekg(0);
  EXPECT_THROW(trainer.restore_state(buffer), ConfigError);
}

// The failure-mode tests below all tamper with a serialized state blob.
std::string serialized_state(Index vocab) {
  CommWorld world(2);
  TrainerOptions opt = tiny_options();
  opt.use_adam = true;
  opt.base_lr = 5e-3f;
  DistributedTrainer trainer(world, char_factory(vocab), opt);
  const auto train = tiny_corpus(vocab, 600, 11);
  const auto valid = tiny_corpus(vocab, 200, 12);
  trainer.run_epoch(train, valid, 0);
  std::ostringstream out(std::ios::binary);
  trainer.save_state(out);
  return out.str();
}

void expect_restore_throws(const std::string& raw, Index vocab,
                           const std::string& needle) {
  CommWorld world(2);
  TrainerOptions opt = tiny_options();
  opt.use_adam = true;
  opt.base_lr = 5e-3f;
  DistributedTrainer trainer(world, char_factory(vocab), opt);
  std::istringstream in(raw, std::ios::binary);
  try {
    trainer.restore_state(in);
    FAIL() << "tampered checkpoint was accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "unexpected error: " << e.what();
  }
}

// Recompute the trailing FNV-1a64 so only the targeted check can fire.
void refresh_checksum(std::string& raw) {
  const std::string_view body(raw.data(), raw.size() - sizeof(std::uint64_t));
  const std::uint64_t sum = fnv1a64(body);
  std::memcpy(raw.data() + body.size(), &sum, sizeof(sum));
}

TEST(CheckpointResume, RejectsTruncatedState) {
  const Index vocab = 30;
  std::string raw = serialized_state(vocab);
  raw.resize(raw.size() - 5);
  expect_restore_throws(raw, vocab, "checksum mismatch");
}

TEST(CheckpointResume, RejectsFlippedBit) {
  const Index vocab = 30;
  std::string raw = serialized_state(vocab);
  raw[raw.size() / 2] = static_cast<char>(raw[raw.size() / 2] ^ 0x10);
  expect_restore_throws(raw, vocab, "checksum mismatch");
}

TEST(CheckpointResume, RejectsRenamedParameterEvenWithValidChecksum) {
  const Index vocab = 30;
  auto probe = char_factory(vocab)(0);
  const std::string name = probe->all_params().front()->name;
  ASSERT_FALSE(name.empty());

  std::string raw = serialized_state(vocab);
  const std::size_t pos = raw.find(name);
  ASSERT_NE(pos, std::string::npos);
  raw[pos] = '#';
  refresh_checksum(raw);  // past the checksum, the name check must catch it
  expect_restore_throws(raw, vocab, "does not match model parameter");
}

TEST(CheckpointResume, RejectsUnsupportedVersion) {
  const Index vocab = 30;
  std::string raw = serialized_state(vocab);
  // Layout: u64 magic, then u32 version.
  std::uint32_t version = 0;
  std::memcpy(&version, raw.data() + sizeof(std::uint64_t), sizeof(version));
  ASSERT_EQ(version, 2u);
  version = 1;
  std::memcpy(raw.data() + sizeof(std::uint64_t), &version, sizeof(version));
  refresh_checksum(raw);
  expect_restore_throws(raw, vocab, "unsupported checkpoint version");
}

TEST(CheckpointResume, RejectsRankCountMismatch) {
  // A 2-rank checkpoint cannot restore a 3-rank trainer: the dropout
  // streams for the extra replica are missing.
  const Index vocab = 30;
  const std::string raw = serialized_state(vocab);

  CommWorld world(3);
  TrainerOptions opt = tiny_options();
  opt.use_adam = true;
  DistributedTrainer trainer(world, char_factory(vocab), opt);
  std::istringstream in(raw, std::ios::binary);
  EXPECT_THROW(trainer.restore_state(in), ConfigError);
}


// -- Mutation fuzz of the v2 loader ------------------------------------
//
// A deterministic fuzzer over restore_state: start from a valid blob,
// mutate it (bit flips, truncations, lying count and length fields),
// re-seal the FNV trailer so every mutation reaches the parser, and
// require the loader to either accept the bytes or throw a zipflm
// error — never crash, never allocate what a lying field claims, never
// leak another exception type.  The seed is a row-sharded Adam
// trainer's: its restore runs the loader's longest path (the canonical
// table re-sliced per rank, the optimizer section parsed by hand).

constexpr int kShardWorld = 2;

DistributedTrainer::ModelFactory sharded_char_factory(Index vocab) {
  return [vocab](int rank) -> std::unique_ptr<LmModel> {
    CharLmConfig cfg;
    cfg.vocab = vocab;
    cfg.embed_dim = 8;
    cfg.hidden_dim = 10;
    cfg.depth = 2;
    cfg.dropout = 0.1f;
    cfg.seed = 99;
    cfg.shard_rank = rank;
    cfg.shard_world = kShardWorld;
    return std::make_unique<CharLm>(cfg);
  };
}

TrainerOptions sharded_adam_options() {
  TrainerOptions opt = tiny_options();
  opt.use_adam = true;
  opt.base_lr = 5e-3f;
  opt.shard_embedding = true;
  return opt;
}

/// A count or length field of the checkpoint body: offset and width.
struct Field {
  std::size_t at;
  std::size_t width;
};

template <typename T>
T peek(const std::string& raw, std::size_t at) {
  T v{};
  std::memcpy(&v, raw.data() + at, sizeof(T));
  return v;
}

/// Every count and length field of a valid v2 body, found by walking
/// the format: the parameter count, each name length, tensor rank and
/// dimension, the optimizer blob length and its Adam step count, and
/// the RNG rank count.
std::vector<Field> count_fields(const std::string& raw) {
  std::vector<Field> out;
  std::size_t pos = 8 + 4 + 8 + 8;  // magic, version, global step, epoch
  const auto params = peek<std::uint64_t>(raw, pos);
  out.push_back({pos, 8});
  pos += 8;
  for (std::uint64_t i = 0; i < params; ++i) {
    out.push_back({pos, 8});
    pos += 8 + peek<std::uint64_t>(raw, pos);  // name
    const auto rank = peek<std::uint32_t>(raw, pos);
    out.push_back({pos, 4});
    pos += 4;
    std::uint64_t elems = 1;
    for (std::uint32_t d = 0; d < rank; ++d) {
      out.push_back({pos, 8});
      elems *= peek<std::uint64_t>(raw, pos);
      pos += 8;
    }
    pos += elems * sizeof(float);
  }
  pos += 1;  // training-state flag
  out.push_back({pos, 8});
  const auto blob = peek<std::uint64_t>(raw, pos);
  pos += 8;
  out.push_back({pos, 8});  // Adam step count, first in its blob
  pos += blob;
  pos += 1;  // loss-scaler flag (sharded trainers carry none)
  out.push_back({pos, 8});
  return out;
}

TEST(CheckpointResume, MutationFuzzNeverCrashesTheLoader) {
  const Index vocab = 30;
  CommWorld world(kShardWorld);
  DistributedTrainer trainer(world, sharded_char_factory(vocab),
                             sharded_adam_options());
  trainer.run_epoch(tiny_corpus(vocab, 600, 11), tiny_corpus(vocab, 200, 12),
                    0);
  std::ostringstream out(std::ios::binary);
  trainer.save_state(out);
  const std::string seed = out.str();
  const std::size_t body = seed.size() - sizeof(std::uint64_t);
  const std::vector<Field> fields = count_fields(seed);
  ASSERT_EQ(fields.back().at + 8 + kShardWorld * 4 * sizeof(std::uint64_t),
            body)
      << "the format walk must end exactly at the checksum";

  // A count or length that lies: off by one either way, zero, or huge.
  const std::uint64_t lies[] = {0,
                                1,
                                0x7fffffffull,
                                0xffffffffull,
                                std::uint64_t{1} << 32,
                                (std::uint64_t{1} << 40) - 1,
                                std::uint64_t{1} << 62,
                                ~std::uint64_t{0}};

  std::istringstream clean(seed, std::ios::binary);
  ASSERT_NO_THROW(trainer.restore_state(clean));

  Rng rng(20261017);
  int rejected = 0;
  int accepted = 0;
  constexpr int kMutations = 3000;
  for (int i = 0; i < kMutations; ++i) {
    std::string raw(seed.data(), body);
    bool must_reject = false;
    switch (i % 3) {
      case 0: {  // flip 1-4 bits anywhere in the body
        const auto flips = 1 + rng.uniform_index(4);
        for (std::uint64_t f = 0; f < flips; ++f) {
          const auto bit = rng.uniform_index(body * 8);
          raw[bit / 8] = static_cast<char>(raw[bit / 8] ^ (1 << (bit % 8)));
        }
        break;
      }
      case 1:  // truncate: some field the parser needs is always missing
        raw.resize(rng.uniform_index(body));
        must_reject = true;
        break;
      default: {  // one count or length field lies
        const Field f = fields[rng.uniform_index(fields.size())];
        std::uint64_t v = lies[rng.uniform_index(std::size(lies))];
        const std::uint64_t truth = f.width == 8
                                        ? peek<std::uint64_t>(seed, f.at)
                                        : peek<std::uint32_t>(seed, f.at);
        if (rng.uniform_index(3) == 0) {
          v = rng.uniform_index(2) == 0 ? truth + 1 : truth - 1;
        }
        if (f.width == 4) v &= 0xffffffffull;
        if (v == truth) continue;
        std::memcpy(raw.data() + f.at, &v, f.width);
        // Any non-negative step count is a valid Adam state; every other
        // field desynchronizes the parse or contradicts the model.
        const bool step_count = f.at == fields[fields.size() - 2].at;
        must_reject = !step_count || static_cast<std::int64_t>(v) < 0;
        break;
      }
    }
    raw.resize(raw.size() + sizeof(std::uint64_t));
    refresh_checksum(raw);
    std::istringstream in(raw, std::ios::binary);
    try {
      trainer.restore_state(in);
      EXPECT_FALSE(must_reject) << "mutation " << i << " was accepted";
      ++accepted;
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Flips inside weight payloads are valid checkpoints; everything that
  // breaks the structure must have been refused.
  EXPECT_GT(rejected, kMutations / 2);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace zipflm
