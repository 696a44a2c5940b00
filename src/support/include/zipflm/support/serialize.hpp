// Binary serialization primitives shared by the checkpoint writer and
// the stateful components it persists (optimizer moments, loss-scaler
// policy, RNG streams).
//
// All integers are written in host byte order — checkpoints are a
// crash-recovery mechanism for the machine that wrote them, not an
// interchange format.  Readers throw ConfigError (via ZIPFLM_CHECK) on
// truncation, so a short read never yields silently-zeroed state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "zipflm/support/error.hpp"

namespace zipflm {

template <typename T>
  requires std::is_trivially_copyable_v<T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
  requires std::is_trivially_copyable_v<T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  ZIPFLM_CHECK(in.good(), "serialized stream truncated");
  return value;
}

inline void write_string(std::ostream& out, const std::string& s) {
  write_pod<std::uint64_t>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string read_string(std::istream& in,
                               std::uint64_t max_len = 1u << 20) {
  const auto n = read_pod<std::uint64_t>(in);
  ZIPFLM_CHECK(n < max_len, "implausible string length in serialized stream");
  // Grow with the bytes actually read, a chunk at a time: a lying length
  // fails as a truncation instead of first allocating what it claims.
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  std::string s;
  while (s.size() < n) {
    const std::size_t have = s.size();
    s.resize(have + std::min<std::uint64_t>(kChunk, n - have));
    in.read(s.data() + have, static_cast<std::streamsize>(s.size() - have));
    ZIPFLM_CHECK(in.good(), "serialized stream truncated");
  }
  return s;
}

/// FNV-1a over a byte range: the checkpoint trailer checksum.  Not
/// cryptographic — it only needs to catch truncation and bit rot.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace zipflm
