// Single-threaded replay of the ring collectives' schedule over G
// buffers: the bitwise oracle every transport is compared against.
//
// Reduce-scatter step s: every rank r combines its left neighbour's
// partial of chunk wrap(r - s - 1) into its own as `mine += left`
// (or max), element by element over the whole chunk.  Under a wire
// codec the operand is decode(encode(left partial)), and each owner —
// rank r owns chunk wrap(r + 1) — finishes by replacing its chunk with
// decode(encode(sum)).  The chunk allgather copies every chunk from its
// owner.  A one-rank world runs no ring at all.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "zipflm/comm/communicator.hpp"
#include "zipflm/comm/wire_codec.hpp"
#include "zipflm/tensor/half.hpp"

namespace zipflm::reference_ring {

enum class Combine { Sum, Max };

inline int wrap(int x, int g) { return ((x % g) + g) % g; }

inline void combine(float& mine, float left, Combine how) {
  mine = how == Combine::Sum ? mine + left : std::max(mine, left);
}

/// FP16 sums accumulate each hop in FP32 and store back to binary16.
inline void combine(Half& mine, Half left, Combine /*Sum only*/) {
  mine = Half(static_cast<float>(mine) + static_cast<float>(left));
}

template <typename T>
void round_trip(WireCodec codec, std::span<T> chunk) {
  if (codec == WireCodec::None || chunk.empty()) return;
  std::vector<std::byte> enc;
  encode_grad_chunk(codec, std::span<const T>(chunk), enc);
  decode_grad_chunk(codec, std::span<const std::byte>(enc), chunk);
}

/// bufs[r] is rank r's buffer; every buffer has the same length.
template <typename T>
void reduce_scatter(std::vector<std::vector<T>>& bufs,
                    Combine how = Combine::Sum,
                    WireCodec codec = WireCodec::None) {
  const int g = static_cast<int>(bufs.size());
  const std::size_t n = bufs.front().size();
  if (g <= 1 || n == 0) return;
  for (int s = 0; s + 1 < g; ++s) {
    // Operands are the left partials as they stood when the step began.
    std::vector<std::vector<T>> operand(static_cast<std::size_t>(g));
    for (int r = 0; r < g; ++r) {
      const ChunkRange c = Communicator::ring_chunk(n, g, wrap(r - s - 1, g));
      const auto& left = bufs[static_cast<std::size_t>(wrap(r - 1, g))];
      auto& op = operand[static_cast<std::size_t>(r)];
      op.assign(left.begin() + static_cast<std::ptrdiff_t>(c.begin),
                left.begin() + static_cast<std::ptrdiff_t>(c.end));
      round_trip(codec, std::span<T>(op));
    }
    for (int r = 0; r < g; ++r) {
      const ChunkRange c = Communicator::ring_chunk(n, g, wrap(r - s - 1, g));
      auto& mine = bufs[static_cast<std::size_t>(r)];
      const auto& op = operand[static_cast<std::size_t>(r)];
      for (std::size_t j = 0; j < c.size(); ++j) {
        combine(mine[c.begin + j], op[j], how);
      }
    }
  }
  for (int r = 0; r < g; ++r) {
    const ChunkRange own = Communicator::owned_chunk(n, r, g);
    round_trip(codec, std::span<T>(bufs[static_cast<std::size_t>(r)])
                          .subspan(own.begin, own.size()));
  }
}

template <typename T>
void allgather_chunks(std::vector<std::vector<T>>& bufs) {
  const int g = static_cast<int>(bufs.size());
  const std::size_t n = bufs.front().size();
  for (int r = 0; r < g; ++r) {
    for (int c = 0; c < g; ++c) {
      const int owner = wrap(c - 1, g);
      if (owner == r) continue;
      const ChunkRange range = Communicator::ring_chunk(n, g, c);
      const auto& src = bufs[static_cast<std::size_t>(owner)];
      std::copy(src.begin() + static_cast<std::ptrdiff_t>(range.begin),
                src.begin() + static_cast<std::ptrdiff_t>(range.end),
                bufs[static_cast<std::size_t>(r)].begin() +
                    static_cast<std::ptrdiff_t>(range.begin));
    }
  }
}

template <typename T>
void allreduce(std::vector<std::vector<T>>& bufs, Combine how = Combine::Sum,
               WireCodec codec = WireCodec::None) {
  reduce_scatter(bufs, how, codec);
  allgather_chunks(bufs);
}

}  // namespace zipflm::reference_ring
