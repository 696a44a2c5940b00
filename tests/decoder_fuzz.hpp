// Deterministic mutation fuzzing of byte decoders: seeded from valid
// encodings, then bit flips, truncations and lying counts.  A mutation
// must either decode in bounds or throw zipflm::Error — never crash,
// hang, or allocate more than the input can describe.  Cheap enough to
// run under the sanitizer tier, which is what turns an out-of-bounds
// read into a failure.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "zipflm/obs/metrics.hpp"
#include "zipflm/support/error.hpp"
#include "zipflm/support/rng.hpp"

namespace zipflm::fuzz {

inline constexpr int kMutations = 2000;

/// Flip 1-4 random bits of `bytes` (which must not be empty).
inline void flip_bits(std::vector<std::byte>& bytes, Rng& rng) {
  const auto flips = 1 + rng.uniform_index(4);
  for (std::uint64_t f = 0; f < flips; ++f) {
    const auto bit = rng.uniform_index(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
}

/// A u64 count field of a frame: its byte offset and true value.  An
/// `exact` count is one a decoder can check against the frame — any
/// lie must be rejected; any count at all must be rejected once it
/// claims more elements than the frame has bytes.
struct CountField {
  std::size_t at = 0;
  std::uint64_t truth = 0;
  bool exact = false;
};

/// A valid encoding to mutate, with the count fields a lie can target.
struct Frame {
  std::vector<std::byte> bytes;
  std::vector<CountField> counts;
};

/// Runs kMutations mutations of frames drawn from `make(rng)` through
/// `decode(bytes)`, cycling bit flips, truncations (always rejected:
/// the frames are strict) and lying counts.  Returns how many mutations
/// the decoder rejected.
template <typename Make, typename Decode>
int mutate_and_decode(std::uint64_t seed, Make make, Decode decode) {
  Rng rng(seed);
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    Frame f = make(rng);
    bool must_reject = false;
    switch (i % 3) {
      case 0:
        flip_bits(f.bytes, rng);
        break;
      case 1:
        f.bytes.resize(rng.uniform_index(f.bytes.size()));
        must_reject = true;
        break;
      default: {
        if (f.counts.empty()) {
          flip_bits(f.bytes, rng);
          break;
        }
        const CountField c = f.counts[rng.uniform_index(f.counts.size())];
        const std::uint64_t lies[] = {0,
                                      c.truth - 1,
                                      c.truth + 1,
                                      2 * c.truth + 17,
                                      std::uint64_t{1} << 40,
                                      ~std::uint64_t{0}};
        const std::uint64_t lie = lies[rng.uniform_index(std::size(lies))];
        std::memcpy(f.bytes.data() + c.at, &lie, sizeof(lie));
        must_reject = lie != c.truth && (c.exact || lie > f.bytes.size());
        break;
      }
    }
    try {
      decode(f.bytes);
      EXPECT_FALSE(must_reject) << "mutation " << i << " decoded";
    } catch (const Error&) {
      ++rejected;
    }
  }
  return rejected;
}

/// 0-12 lowercase letters.
inline std::string random_name(Rng& rng) {
  std::string s(rng.uniform_index(13), 'a');
  for (char& c : s) c = static_cast<char>('a' + rng.uniform_index(26));
  return s;
}

/// A random metrics snapshot (0-4 entries of each kind) framed by
/// `encode` — a type byte followed by the snapshot body, the layout the
/// telemetry MetricsChunk and the serve StatsReply share.  Offsets of
/// the count fields come from encoding prefixes of the snapshot: an
/// empty section encodes as its 8-byte zero count.
template <typename Encode>
Frame snapshot_frame(Rng& rng, Encode encode) {
  obs::MetricsSnapshot snap;
  for (auto n = rng.uniform_index(5); n > 0; --n) {
    snap.counters[random_name(rng)] = rng();
  }
  const std::size_t gauges_at = encode(snap).size() - 16;
  for (auto n = rng.uniform_index(5); n > 0; --n) {
    snap.gauges[random_name(rng)] = rng.normal();
  }
  const std::size_t histograms_at = encode(snap).size() - 8;
  for (auto n = rng.uniform_index(5); n > 0; --n) {
    obs::HistogramSnapshot h;
    h.buckets.resize(rng.uniform_index(6));
    for (auto& b : h.buckets) {
      b = rng.uniform_index(100);
      h.count += b;
    }
    h.sum = rng.uniform(0.0, 10.0);
    h.max = rng.uniform(0.0, 1.0);
    snap.histograms[random_name(rng)] = h;
  }
  Frame f{encode(snap), {}};
  f.counts.push_back({1, snap.counters.size(), false});
  f.counts.push_back({gauges_at, snap.gauges.size(), false});
  // The histogram section runs to the end of the frame, so its count —
  // and the last histogram's bucket count — is exact.
  f.counts.push_back({histograms_at, snap.histograms.size(), true});
  if (!snap.histograms.empty()) {
    const auto buckets = snap.histograms.rbegin()->second.buckets.size();
    f.counts.push_back({f.bytes.size() - 8 * (buckets + 1), buckets, true});
  }
  return f;
}

}  // namespace zipflm::fuzz
