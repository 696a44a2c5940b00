// The collective engine: the subset of MPI the paper's training loop
// needs — barrier, ALLREDUCE (sum / max, FP32 and FP16) and its two
// ring halves (reduce-scatter, chunk allgather), ALLGATHER (fixed and
// variable block size), personalized all-to-all, broadcast — run as
// ring collectives over a zipflm::net::Transport.  It runs under every
// CommWorld backend (the in-process transport by default, a socketpair
// mesh for Socket) and under the multi-process ProcessGroup.
//
// Every collective runs one chunk schedule and one accumulation order
// (reduce-scatter step s accumulates the left neighbour's partial of
// chunk wrap(rank-s-1) as `mine += left`), so losses and weights are
// bitwise identical across transports; tests/reference_ring.hpp replays
// the schedule single-threaded as the oracle.
//
// Every collective books one TrafficLedger delta into the calling
// rank's ledger and, summed over ranks, into the "comm/..." metrics:
// payload bytes and CostModel-simulated seconds by closed form, plus
// the *measured* telemetry the transport adds on top — wire_bytes_*
// (framing included) and real_comm_seconds — kept apart from the
// simulated figures.
//
// Collectives must be invoked by every rank of the world in the same
// order with consistent arguments.  Each opens with a 24-byte header
// exchange between ring neighbours carrying {op, payload bytes, root,
// sequence number, codec}: a disagreeing header is a
// CollectiveMismatchError on every rank; a peer that vanished
// mid-collective (EOF, ECONNRESET, a closed in-process lane, transport
// timeout) surfaces as CollectiveTimeoutError, feeding CommWorld's
// rank-retire / world-rebuild path.
//
// node_comm() and leader_comm() run over a rank subset of the same
// transport.  Their messages share the parent's per-pair FIFOs, which
// stays correct because every member issues its collectives in the same
// program order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "zipflm/comm/cost_model.hpp"
#include "zipflm/comm/ledger.hpp"
#include "zipflm/comm/topology.hpp"
#include "zipflm/comm/wire_codec.hpp"
#include "zipflm/net/transport.hpp"
#include "zipflm/support/error.hpp"
#include "zipflm/tensor/half.hpp"

namespace zipflm {

/// Element range [begin, end) of one ring chunk of a buffer.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const noexcept { return end - begin; }
};

enum class FaultKind : std::uint8_t {
  Kill,     ///< rank stops participating (no abort, no exception escapes)
  Delay,    ///< rank sleeps delay_seconds before the collective
  Corrupt,  ///< rank's contribution is overwritten with NaN bytes
};

/// Internal signal thrown inside a killed rank's collective.  Not
/// derived from zipflm::Error on purpose: user code catching Error must
/// not be able to swallow a simulated process death.
struct SimulatedRankDeath {
  int rank = -1;
};

/// What a rank must do on entering its next collective.
struct TransportFault {
  FaultKind kind = FaultKind::Kill;
  double delay_seconds = 0.0;
  bool armed = false;
};

class Communicator {
 public:
  struct Hooks {
    TrafficLedger* ledger = nullptr;  ///< required: payload accounting sink
    const CostModel* cost = nullptr;  ///< required: simulated-seconds pricing
    /// Optional fault hook, polled at the head of every collective
    /// (CommWorld wires its FaultPlan through this).
    std::function<TransportFault()> fault;
    /// Id used for the SimulatedRankDeath signal and trace lanes; equals
    /// the world communicator's rank() except in a degraded world with
    /// retired ranks.
    int global_rank = 0;
  };

  /// The transport must outlive the communicator and is driven
  /// exclusively by this communicator's thread.
  Communicator(net::Transport& transport, Topology topo, Hooks hooks);

  int rank() const noexcept { return rank_; }
  int world_size() const noexcept { return size_; }
  const Topology& topology() const noexcept { return topo_; }
  TrafficLedger& ledger() noexcept { return *hooks_.ledger; }

  void barrier();

  /// In-place sum-allreduce over FP32 (ring reduce-scatter + allgather).
  void allreduce_sum(std::span<float> data);
  /// FP16 wire allreduce: per-hop accumulation in FP32, stored back to
  /// binary16 after each hop (NCCL half-precision semantics).
  void allreduce_sum(std::span<Half> data);
  /// In-place elementwise max-allreduce (loss-scaler overflow voting).
  void allreduce_max(std::span<float> data);

  /// The first half of allreduce_sum: a ring reduce-scatter, in place.
  /// On return this rank's owned_chunk of `data` holds exactly the bytes
  /// allreduce_sum would leave there (under Int8, the owner's
  /// decode(encode(sum)) round trip included); every other element is
  /// a partial sum and must be treated as scratch.
  void reduce_scatter_sum(std::span<float> data);
  void reduce_scatter_sum(std::span<Half> data);
  /// The second half of allreduce_sum over FP32 values: every rank
  /// contributes its owned_chunk of `data` and receives every other
  /// rank's.  Never coded — the armed wire codec does not apply.
  void allgather_chunks(std::span<float> data);

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
  void allgather_bytes(std::span<const std::byte> local,
                       std::span<std::byte> out);

  /// Gather variably-sized blocks.  counts[r] receives the byte size of
  /// rank r's block; out is resized to the concatenation by rank.
  void allgatherv_bytes(std::span<const std::byte> local,
                        std::vector<std::byte>& out,
                        std::vector<std::size_t>& counts);

  /// Personalized all-to-all over variably-sized byte blocks.
  /// send is the concatenation, by destination rank, of the blocks this
  /// rank ships; send_counts[d] is the byte size of the block bound for
  /// rank d (send_counts.size() == world_size(), the self block is
  /// copied locally).  On return recv_counts[s] holds the byte size of
  /// the block rank s addressed to this rank and out is their
  /// concatenation by source rank.  Like every collective it must be
  /// invoked by all ranks in the same step; per-rank counts may differ
  /// freely (the sharded-embedding pull/push exchange is the client).
  void alltoallv_bytes(std::span<const std::byte> send,
                       std::span<const std::size_t> send_counts,
                       std::vector<std::byte>& out,
                       std::vector<std::size_t>& recv_counts);

  void broadcast_bytes(std::span<std::byte> data, int root);

  /// Arms a gradient wire codec for subsequent allreduce_sum and
  /// reduce_scatter_sum calls on THIS communicator (sub-communicators
  /// keep their own arming; both default to None, so hierarchical legs
  /// stay raw unless armed explicitly).  allreduce_max and the byte
  /// collectives ignore it.  The codec is negotiated per collective —
  /// ranks arming different codecs fault with CollectiveMismatchError.
  /// Prefer WireCodecScope over calling this directly.
  void set_wire_codec(WireCodec codec) noexcept { codec_ = codec; }
  WireCodec wire_codec() const noexcept { return codec_; }

  /// Sub-communicator spanning the ranks of this rank's node, priced as
  /// one node; nullptr on a sub-communicator.  Rank order within the
  /// group follows global rank order; this rank participates.
  Communicator* node_comm() noexcept;

  /// Sub-communicator spanning the first rank of every node, priced as
  /// one rank per node; nullptr on a sub-communicator, if this rank is
  /// not a node leader, or if there is only one node.  Collectives on
  /// it must be invoked by all leaders (and only them).  Both
  /// sub-communicators book into this rank's ledger and fault hook.
  Communicator* leader_comm() noexcept;

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

 private:
  enum class CollOp : std::uint8_t {
    Barrier = 1,
    AllReduceF32,
    AllReduceF16,
    AllReduceMaxF32,
    AllGather,
    AllGatherV,
    AllToAllV,
    Broadcast,
    ReduceScatterF32,
    ReduceScatterF16,
    AllGatherChunks,
  };

  /// What a collective declares before any byte moves.
  struct Call {
    CollOp op;
    const char* name;  ///< span name and error-message prefix
    /// The span's payload_bytes arg (none for a barrier) and the size
    /// the header exchange checks, unless `sized` is false: allgatherv
    /// and alltoallv blocks legitimately differ in size across ranks.
    std::size_t payload = 0;
    bool sized = true;
    int root = -1;
    WireCodec codec = WireCodec::None;
    /// This rank's contribution, poisoned by a Corrupt fault; a null
    /// span defers the poison to the next allgatherv's staged block.
    std::span<std::byte> own = {};
  };

  /// One collective, start to finish: the span, the fault hook, the
  /// header handshake, then body(delta, span) — which runs the schedule
  /// and fills in this call's TrafficLedger delta — with transport
  /// failures translated into the collective error taxonomy.  However
  /// it ends, the delta plus the measured wire bytes and seconds is
  /// booked into the ledger and the "comm/..." mirror.
  template <typename Body>
  void collective(const Call& call, Body&& body);
  class Booking;

  /// A communicator over the transport ranks `members` (ascending),
  /// in which this rank is members[rank].
  Communicator(net::Transport& transport, Topology topo, Hooks hooks,
               std::vector<int> members, int rank);

  /// Transport rank of communicator rank r.
  int peer(int r) const {
    return members_.empty() ? r : members_[static_cast<std::size_t>(r)];
  }
  net::Completion send(int r, std::span<const std::byte> data) {
    return transport_.send(peer(r), data);
  }
  net::Completion recv(int r, std::span<std::byte> into) {
    return transport_.recv(peer(r), into);
  }
  void recv_in_place(int r, std::span<std::byte> scratch,
                     const net::Transport::BytesFn& use) {
    transport_.recv_in_place(peer(r), scratch, use);
  }

  /// Fault hook at the head of every collective: Kill throws
  /// SimulatedRankDeath, Delay sleeps, Corrupt poisons the rank's own
  /// contribution with 0xFF bytes (deferred via pending_corrupt_ when
  /// no buffer exists yet).
  void enter_collective(std::span<std::byte> own);

  /// Exchange headers with the ring neighbours and check the left
  /// neighbour agrees on (op, bytes, root, seq, codec); a barrier keeps
  /// going as a dissemination barrier.  Advances seq_.
  void handshake(const Call& call);

  /// The ring's forwarding pattern: step s sends block (first - s)
  /// right and receives block (first - s - 1) from the left straight
  /// into place; block(i) is block i's bytes.  Returns the bytes sent.
  template <typename Block>
  std::uint64_t ring_forward(int first, Block block);

  /// `halves` selects the reduce-scatter, the allgather, or both (an
  /// allreduce) — kReduceScatter / kAllgather in communicator.cpp.
  template <typename T, typename Red>
  void ring(std::span<T> data, CollOp op, const char* op_name, Red reduce,
            WireCodec codec, unsigned halves);

  /// Coded ring body: hops move encoded chunks whose size both ends
  /// compute from the chunk length; the allgather forwards the owner's
  /// encoding verbatim so every rank decodes identical bytes.
  template <typename T, typename Red>
  void ring_coded(std::span<T> data, Red reduce, WireCodec codec,
                  unsigned halves, std::uint64_t& moved_elems,
                  std::uint64_t& enc_wire);

  /// Room for `elems` received elements, reused across collectives and
  /// left unwritten: an in-place receive never touches its pages.
  template <typename T>
  T* recv_buffer(std::size_t elems) {
    if (recv_capacity_ < elems * sizeof(T)) {
      recv_buffer_ =
          std::make_unique_for_overwrite<std::byte[]>(elems * sizeof(T));
      recv_capacity_ = elems * sizeof(T);
    }
    return reinterpret_cast<T*>(recv_buffer_.get());
  }

  net::Transport& transport_;
  Topology topo_;
  Hooks hooks_;
  std::vector<int> members_;  ///< transport rank per rank; empty = identity
  int rank_;
  int size_;
  std::unique_ptr<std::byte[]> recv_buffer_;
  std::size_t recv_capacity_ = 0;
  std::unique_ptr<Communicator> node_;
  std::unique_ptr<Communicator> leaders_;
  std::uint32_t seq_ = 0;  ///< collective counter, validated peer-to-peer
  WireCodec codec_ = WireCodec::None;
  bool pending_corrupt_ = false;
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
