// Rank-facing collective interface.
//
// Mirrors the subset of MPI the paper's training loop needs: barrier,
// ALLREDUCE (sum / max, FP32 and FP16) and its two ring halves
// (reduce-scatter, chunk allgather), ALLGATHER (fixed and variable
// block size), broadcast.  Every collective updates the calling rank's
// TrafficLedger with exact wire bytes, scratch size, and simulated
// transfer time under the world's CostModel.
//
// Collectives must be invoked by every rank of the world in the same
// order with consistent arguments; the implementation validates this and
// throws CollectiveMismatchError symmetrically on all ranks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "zipflm/comm/ledger.hpp"
#include "zipflm/comm/topology.hpp"
#include "zipflm/comm/wire_codec.hpp"
#include "zipflm/support/error.hpp"
#include "zipflm/tensor/half.hpp"

namespace zipflm {

/// Element range [begin, end) of one ring chunk of a buffer.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const noexcept { return end - begin; }
};

class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const noexcept = 0;
  virtual int world_size() const noexcept = 0;
  virtual const Topology& topology() const noexcept = 0;

  virtual void barrier() = 0;

  /// In-place sum-allreduce over FP32 (ring reduce-scatter + allgather).
  virtual void allreduce_sum(std::span<float> data) = 0;
  /// FP16 wire allreduce: per-hop accumulation in FP32, stored back to
  /// binary16 after each hop (NCCL half-precision semantics).
  virtual void allreduce_sum(std::span<Half> data) = 0;
  /// In-place elementwise max-allreduce (loss-scaler overflow voting).
  virtual void allreduce_max(std::span<float> data) = 0;

  /// The first half of allreduce_sum: a ring reduce-scatter, in place.
  /// On return this rank's owned_chunk of `data` holds exactly the bytes
  /// allreduce_sum would leave there (under Int8, the owner's
  /// decode(encode(sum)) round trip included); every other element is
  /// a partial sum and must be treated as scratch.
  virtual void reduce_scatter_sum(std::span<float> data) = 0;
  virtual void reduce_scatter_sum(std::span<Half> data) = 0;
  /// The second half of allreduce_sum over FP32 values: every rank
  /// contributes its owned_chunk of `data` and receives every other
  /// rank's.  Never coded — the armed wire codec does not apply.
  virtual void allgather_chunks(std::span<float> data) = 0;

  /// Element range of ring chunk c when n elements are split into
  /// `world` chunks as evenly as possible (the first n % world chunks
  /// get one extra element).
  static ChunkRange ring_chunk(std::size_t n, int world, int c) {
    const auto g = static_cast<std::size_t>(world);
    const auto k = static_cast<std::size_t>(c);
    const std::size_t q = n / g;
    const std::size_t rem = n % g;
    const std::size_t begin = k * q + std::min(rem, k);
    return {begin, begin + q + (k < rem ? 1 : 0)};
  }

  /// The ring chunk rank `rank` of a `world`-rank ring completes in a
  /// reduce-scatter of n elements: chunk (rank + 1) mod world.  The
  /// ranks' chunks tile [0, n) exactly; world == 1 owns everything.
  static ChunkRange owned_chunk(std::size_t n, int rank, int world) {
    return ring_chunk(n, world, (rank + 1) % world);
  }

  /// Gather an equal-sized byte block from every rank; out must hold
  /// world_size() * local.size() bytes, laid out by rank.
  virtual void allgather_bytes(std::span<const std::byte> local,
                               std::span<std::byte> out) = 0;

  /// Gather variably-sized blocks.  counts[r] receives the byte size of
  /// rank r's block; out is resized to the concatenation by rank.
  virtual void allgatherv_bytes(std::span<const std::byte> local,
                                std::vector<std::byte>& out,
                                std::vector<std::size_t>& counts) = 0;

  /// Personalized all-to-all over variably-sized byte blocks.
  /// send is the concatenation, by destination rank, of the blocks this
  /// rank ships; send_counts[d] is the byte size of the block bound for
  /// rank d (send_counts.size() == world_size(), the self block is
  /// copied locally).  On return recv_counts[s] holds the byte size of
  /// the block rank s addressed to this rank and out is their
  /// concatenation by source rank.  Like every collective it must be
  /// invoked by all ranks in the same step; per-rank counts may differ
  /// freely (the sharded-embedding pull/push exchange is the client).
  virtual void alltoallv_bytes(std::span<const std::byte> send,
                               std::span<const std::size_t> send_counts,
                               std::vector<std::byte>& out,
                               std::vector<std::size_t>& recv_counts) = 0;

  virtual void broadcast_bytes(std::span<std::byte> data, int root) = 0;

  virtual TrafficLedger& ledger() noexcept = 0;

  /// Arms a gradient wire codec for subsequent allreduce_sum calls on
  /// THIS communicator (sub-communicators keep their own arming; both
  /// default to None, so hierarchical legs stay raw unless armed
  /// explicitly).  allreduce_max and the byte collectives ignore it.
  /// The codec is negotiated per collective — ranks arming different
  /// codecs fault with CollectiveMismatchError.  Prefer WireCodecScope
  /// over calling this directly.
  virtual void set_wire_codec(WireCodec codec) noexcept = 0;
  virtual WireCodec wire_codec() const noexcept = 0;

  /// Sub-communicator spanning the ranks of this rank's node, or nullptr
  /// when the implementation does not support sub-groups.  Rank order
  /// within the group follows global rank order; this rank participates.
  virtual Communicator* node_comm() noexcept { return nullptr; }

  /// Sub-communicator spanning the first rank of every node, or nullptr
  /// if this rank is not a node leader (or there is only one node).
  /// Collectives on it must be invoked by all leaders (and only them).
  virtual Communicator* leader_comm() noexcept { return nullptr; }

  // ---- Typed convenience wrappers -------------------------------------

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void allgather(std::span<const T> local, std::vector<T>& out) {
    out.resize(local.size() * static_cast<std::size_t>(world_size()));
    allgather_bytes(std::as_bytes(local),
                    std::as_writable_bytes(std::span<T>(out)));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void allgatherv(std::span<const T> local, std::vector<T>& out,
                  std::vector<std::size_t>* element_counts = nullptr) {
    std::vector<std::byte> raw;
    std::vector<std::size_t> byte_counts;
    allgatherv_bytes(std::as_bytes(local), raw, byte_counts);
    ZIPFLM_ASSERT(raw.size() % sizeof(T) == 0,
                  "allgatherv payload not a whole number of elements");
    out.resize(raw.size() / sizeof(T));
    if (!raw.empty()) {
      std::memcpy(out.data(), raw.data(), raw.size());
    }
    if (element_counts != nullptr) {
      element_counts->resize(byte_counts.size());
      for (std::size_t r = 0; r < byte_counts.size(); ++r) {
        (*element_counts)[r] = byte_counts[r] / sizeof(T);
      }
    }
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void broadcast(std::span<T> data, int root) {
    broadcast_bytes(std::as_writable_bytes(data), root);
  }

  /// Element-typed alltoallv: counts are element counts per peer.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void alltoallv(std::span<const T> send,
                 std::span<const std::size_t> send_counts, std::vector<T>& out,
                 std::vector<std::size_t>& recv_counts) {
    std::vector<std::size_t> send_bytes(send_counts.size());
    for (std::size_t d = 0; d < send_counts.size(); ++d) {
      send_bytes[d] = send_counts[d] * sizeof(T);
    }
    std::vector<std::byte> raw;
    std::vector<std::size_t> recv_bytes;
    alltoallv_bytes(std::as_bytes(send), send_bytes, raw, recv_bytes);
    ZIPFLM_ASSERT(raw.size() % sizeof(T) == 0,
                  "alltoallv payload not a whole number of elements");
    out.resize(raw.size() / sizeof(T));
    if (!raw.empty()) {
      // An empty world-wide exchange (every count zero) leaves both
      // buffers null — memcpy's nonnull contract forbids that call.
      std::memcpy(out.data(), raw.data(), raw.size());
    }
    recv_counts.resize(recv_bytes.size());
    for (std::size_t s = 0; s < recv_bytes.size(); ++s) {
      ZIPFLM_ASSERT(recv_bytes[s] % sizeof(T) == 0,
                    "alltoallv peer block not a whole number of elements");
      recv_counts[s] = recv_bytes[s] / sizeof(T);
    }
  }
};

/// RAII arming of a gradient wire codec; restores the previous codec on
/// scope exit so nested/legacy callers always see the state they set.
class WireCodecScope {
 public:
  WireCodecScope(Communicator& comm, WireCodec codec) noexcept
      : comm_(comm), prev_(comm.wire_codec()) {
    comm_.set_wire_codec(codec);
  }
  ~WireCodecScope() { comm_.set_wire_codec(prev_); }

  WireCodecScope(const WireCodecScope&) = delete;
  WireCodecScope& operator=(const WireCodecScope&) = delete;

 private:
  Communicator& comm_;
  WireCodec prev_;
};

}  // namespace zipflm
