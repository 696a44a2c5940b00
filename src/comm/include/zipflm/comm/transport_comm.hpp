// The collective engine: ring collectives as message passing over a
// zipflm::net::Transport.  It runs under every CommWorld backend (the
// in-process transport by default, a socketpair mesh for Socket) and
// under the multi-process ProcessGroup.
//
// Every collective runs one chunk schedule and one accumulation order
// (reduce-scatter step s accumulates the left neighbour's partial of
// chunk wrap(rank-s-1) as `mine += left`), so losses and weights are
// bitwise identical across transports; tests/reference_ring.hpp replays
// the schedule single-threaded as the oracle.  The TrafficLedger books
// payload bytes and CostModel-simulated seconds by closed form; what the
// transport adds on top is *measured* telemetry — wire_bytes_* (framing
// included) and real_comm_seconds — kept apart from the simulated
// figures.
//
// Every collective opens with a 24-byte header exchange between ring
// neighbours carrying {op, payload bytes, root, sequence number}: the
// world-size handshake's per-collective sibling.  A disagreeing header
// is a CollectiveMismatchError; a peer that vanished mid-collective
// (EOF, ECONNRESET, a closed in-process lane, transport timeout)
// surfaces as CollectiveTimeoutError, feeding CommWorld's rank-retire /
// world-rebuild path.
//
// node_comm() and leader_comm() run over a rank subset of the same
// transport.  Their messages share the parent's per-pair FIFOs, which
// stays correct because every member issues its collectives in the same
// program order.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "zipflm/comm/communicator.hpp"
#include "zipflm/comm/cost_model.hpp"
#include "zipflm/net/transport.hpp"

namespace zipflm {

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

class TransportComm final : public Communicator {
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
  TransportComm(net::Transport& transport, Topology topo, Hooks hooks);

  int rank() const noexcept override { return rank_; }
  int world_size() const noexcept override { return size_; }
  const Topology& topology() const noexcept override { return topo_; }
  TrafficLedger& ledger() noexcept override { return *hooks_.ledger; }

  void barrier() override;
  void allreduce_sum(std::span<float> data) override;
  void allreduce_sum(std::span<Half> data) override;
  void allreduce_max(std::span<float> data) override;
  void reduce_scatter_sum(std::span<float> data) override;
  void reduce_scatter_sum(std::span<Half> data) override;
  void allgather_chunks(std::span<float> data) override;
  void allgather_bytes(std::span<const std::byte> local,
                       std::span<std::byte> out) override;
  void allgatherv_bytes(std::span<const std::byte> local,
                        std::vector<std::byte>& out,
                        std::vector<std::size_t>& counts) override;
  void alltoallv_bytes(std::span<const std::byte> send,
                       std::span<const std::size_t> send_counts,
                       std::vector<std::byte>& out,
                       std::vector<std::size_t>& recv_counts) override;
  void broadcast_bytes(std::span<std::byte> data, int root) override;

  void set_wire_codec(WireCodec codec) noexcept override { codec_ = codec; }
  WireCodec wire_codec() const noexcept override { return codec_; }

  /// Sub-communicators of the world communicator (nullptr on a
  /// sub-communicator): this rank's node, priced as one node, and the
  /// node leaders (nodes > 1, leaders only), priced as one rank per
  /// node.  Both book into this rank's ledger and fault hook.
  Communicator* node_comm() noexcept override;
  Communicator* leader_comm() noexcept override;

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

  /// Per-collective frame exchanged between ring neighbours before any
  /// payload byte moves.  pad[0] carries the negotiated WireCodec id
  /// (None for every collective family except coded sum-allreduces);
  /// ranks arming different codecs fail the handshake loudly instead of
  /// decoding each other's payload as garbage.
  struct WireHeader {
    std::uint32_t magic = 0;
    std::uint8_t op = 0;
    std::uint8_t pad[3] = {};
    std::int32_t root = -1;
    std::uint32_t seq = 0;
    std::uint64_t coll_bytes = 0;
  };
  static_assert(sizeof(WireHeader) == 24);

  // allgatherv blocks legitimately differ in size across ranks.
  static constexpr std::uint64_t kIgnoreBytes = ~std::uint64_t{0};

  /// Snapshot of transport stats + wall clock at collective entry; the
  /// destructor books the deltas into the ledger's wire_bytes_* /
  /// real_comm_seconds and the comm/net_* metrics.
  class WireScope {
   public:
    explicit WireScope(TransportComm& comm);
    ~WireScope();

   private:
    TransportComm& comm_;
    net::NetStats before_;
    std::chrono::steady_clock::time_point start_;
  };

  /// A communicator over the transport ranks `members` (ascending),
  /// in which this rank is members[rank].
  TransportComm(net::Transport& transport, Topology topo, Hooks hooks,
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
  void enter_collective(std::byte* buf, std::size_t bytes);

  /// Exchange WireHeaders with the ring neighbours and validate the
  /// left neighbour agrees on (op, bytes, root, seq, codec).  Advances
  /// seq_.
  void neighbor_handshake(CollOp op, std::uint64_t bytes, int root,
                          WireCodec codec = WireCodec::None);

  void validate_header(const WireHeader& got, CollOp op, std::uint64_t bytes,
                       int root, WireCodec codec) const;

  WireHeader make_header(CollOp op, std::uint64_t bytes, int root,
                         WireCodec codec) const;

  /// Translate the in-flight net::TransportError into the collective
  /// failure taxonomy (CollectiveTimeoutError / CollectiveMismatchError).
  [[noreturn]] void rethrow_as_collective(const char* coll);

  /// `halves` selects the reduce-scatter, the allgather, or both (an
  /// allreduce) — kReduceScatter / kAllgather in transport_comm.cpp.
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
  std::unique_ptr<TransportComm> node_;
  std::unique_ptr<TransportComm> leaders_;
  std::uint32_t seq_ = 0;  ///< collective counter, validated peer-to-peer
  WireCodec codec_ = WireCodec::None;
  bool pending_corrupt_ = false;
};

}  // namespace zipflm
