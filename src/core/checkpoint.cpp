#include "zipflm/core/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "zipflm/support/serialize.hpp"

namespace zipflm {

namespace {

constexpr std::uint64_t kMagic = 0x5A49'5046'4C4D'4350ull;  // "ZIPFLMCP"
constexpr std::uint32_t kVersion = 2;

void write_body(std::ostream& out, std::span<Param* const> params,
                const CheckpointMeta& meta, const TrainState* train) {
  write_pod(out, kMagic);
  write_pod(out, kVersion);
  write_pod(out, meta.global_step);
  write_pod(out, meta.epoch);

  write_pod<std::uint64_t>(out, params.size());
  for (const Param* p : params) {
    write_string(out, p->name);
    write_pod<std::uint32_t>(out,
                             static_cast<std::uint32_t>(p->value.rank()));
    for (const Index d : p->value.shape()) {
      write_pod<std::int64_t>(out, d);
    }
    out.write(reinterpret_cast<const char*>(p->value.data().data()),
              static_cast<std::streamsize>(p->value.bytes()));
  }

  write_pod<std::uint8_t>(out, train != nullptr ? 1 : 0);
  if (train != nullptr) {
    write_string(out, train->optimizer_blob);
    write_pod<std::uint8_t>(out, train->has_scaler ? 1 : 0);
    if (train->has_scaler) {
      write_pod(out, train->scaler.scale);
      write_pod(out, train->scaler.good_streak);
      write_pod(out, train->scaler.skipped);
    }
    write_pod<std::uint64_t>(out, train->rank_rng.size());
    for (const auto& words : train->rank_rng) {
      for (const std::uint64_t w : words) write_pod(out, w);
    }
  }
}

CheckpointMeta read_body(std::istream& in, std::span<Param* const> params,
                         TrainState* train) {
  ZIPFLM_CHECK(read_pod<std::uint64_t>(in) == kMagic,
               "not a zipflm checkpoint (bad magic)");
  const auto version = read_pod<std::uint32_t>(in);
  ZIPFLM_CHECK(version == kVersion,
               "unsupported checkpoint version " + std::to_string(version) +
                   " (this build reads version " + std::to_string(kVersion) +
                   " only)");
  CheckpointMeta meta;
  meta.global_step = read_pod<std::uint64_t>(in);
  meta.epoch = read_pod<std::uint64_t>(in);

  const auto count = read_pod<std::uint64_t>(in);
  ZIPFLM_CHECK(count == params.size(),
               "checkpoint parameter count does not match the model");
  for (Param* p : params) {
    const std::string name = read_string(in);
    ZIPFLM_CHECK(name == p->name,
                 "checkpoint parameter '" + name +
                     "' does not match model parameter '" + p->name + "'");
    const auto rank = read_pod<std::uint32_t>(in);
    ZIPFLM_CHECK(rank == static_cast<std::uint32_t>(p->value.rank()),
                 "checkpoint rank mismatch for " + name);
    for (const Index d : p->value.shape()) {
      ZIPFLM_CHECK(read_pod<std::int64_t>(in) == d,
                   "checkpoint shape mismatch for " + name);
    }
    in.read(reinterpret_cast<char*>(p->value.data().data()),
            static_cast<std::streamsize>(p->value.bytes()));
    ZIPFLM_CHECK(in.good(), "checkpoint payload truncated for " + name);
  }

  TrainState parsed;
  if (read_pod<std::uint8_t>(in) != 0) {
    parsed.present = true;
    // Optimizer blobs scale with the model (2 FP32 moments per weight).
    parsed.optimizer_blob = read_string(in, std::uint64_t{1} << 40);
    if (read_pod<std::uint8_t>(in) != 0) {
      parsed.has_scaler = true;
      parsed.scaler.scale = read_pod<float>(in);
      parsed.scaler.good_streak = read_pod<std::int32_t>(in);
      parsed.scaler.skipped = read_pod<std::int32_t>(in);
    }
    const auto ranks = read_pod<std::uint64_t>(in);
    ZIPFLM_CHECK(ranks < (1u << 20), "implausible rank count in checkpoint");
    parsed.rank_rng.resize(ranks);
    for (auto& words : parsed.rank_rng) {
      for (std::uint64_t& w : words) w = read_pod<std::uint64_t>(in);
    }
  }
  if (train != nullptr) *train = std::move(parsed);
  return meta;
}

}  // namespace

void save_checkpoint(std::ostream& out, std::span<Param* const> params,
                     const CheckpointMeta& meta, const TrainState* train) {
  // Buffer the body so the checksum can trail it in one write.
  std::ostringstream body(std::ios::binary);
  write_body(body, params, meta, train);
  const std::string bytes = body.str();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  write_pod(out, fnv1a64(bytes));
  ZIPFLM_CHECK(out.good(), "checkpoint write failed");
}

void save_checkpoint(std::ostream& out, LmModel& model,
                     const CheckpointMeta& meta, const TrainState* train) {
  const auto params = model.all_params();
  save_checkpoint(out, params, meta, train);
}

CheckpointMeta load_checkpoint(std::istream& in,
                               std::span<Param* const> params,
                               TrainState* train) {
  const std::string raw(std::istreambuf_iterator<char>(in), {});
  ZIPFLM_CHECK(raw.size() > sizeof(std::uint64_t),
               "checkpoint stream truncated");
  const std::string_view body(raw.data(), raw.size() - sizeof(std::uint64_t));
  std::uint64_t stored = 0;
  std::memcpy(&stored, raw.data() + body.size(), sizeof(stored));
  ZIPFLM_CHECK(fnv1a64(body) == stored,
               "checkpoint checksum mismatch (truncated or corrupt file)");

  std::istringstream stream{std::string(body), std::ios::binary};
  return read_body(stream, params, train);
}

CheckpointMeta load_checkpoint(std::istream& in, LmModel& model,
                               TrainState* train) {
  const auto params = model.all_params();
  return load_checkpoint(in, params, train);
}

void save_file_atomically(const std::string& path,
                          const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    ZIPFLM_CHECK(out.is_open(), "cannot open checkpoint file: " + tmp);
    write(out);
    out.flush();
    ZIPFLM_CHECK(out.good(), "checkpoint flush failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    ZIPFLM_CHECK(false, "cannot move checkpoint into place: " + path);
  }
}

void save_checkpoint_file(const std::string& path, LmModel& model,
                          const CheckpointMeta& meta,
                          const TrainState* train) {
  save_file_atomically(path, [&](std::ostream& out) {
    save_checkpoint(out, model, meta, train);
  });
}

CheckpointMeta load_checkpoint_file(const std::string& path, LmModel& model,
                                    TrainState* train) {
  std::ifstream in(path, std::ios::binary);
  ZIPFLM_CHECK(in.is_open(), "cannot open checkpoint file: " + path);
  return load_checkpoint(in, model, train);
}

}  // namespace zipflm
