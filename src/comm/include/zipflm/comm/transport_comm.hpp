// Communicator implemented as message-passing rings over a
// zipflm::net::Transport — the engine behind CommWorld's InProcNet /
// Socket backends and the multi-process ProcessGroup.
//
// The contract that makes backends interchangeable: every collective
// runs the SAME chunk schedule and the SAME accumulation order as the
// shared-memory engine in thread_comm.cpp (reduce-scatter step s
// accumulates the left neighbour's partial of chunk wrap(rank-s-1) as
// `mine += left`), so losses and weights are bitwise identical across
// thread, in-proc-net, and socket worlds.  The TrafficLedger payload
// accounting and obs span/metric instrumentation use the identical
// formulas too; what the transport adds on top is *measured* telemetry
// — wire_bytes_* (framing included) and real_comm_seconds — kept apart
// from the CostModel's simulated figures.
//
// Every collective opens with a 24-byte header exchange between ring
// neighbours carrying {op, payload bytes, root, sequence number}: the
// world-size handshake's per-collective sibling.  A disagreeing header
// is a CollectiveMismatchError; a peer that vanished mid-collective
// (EOF, ECONNRESET, transport timeout) surfaces as
// CollectiveTimeoutError, feeding the same rank-retire / world-rebuild
// path the shared-memory barriers use.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "zipflm/comm/communicator.hpp"
#include "zipflm/comm/cost_model.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/net/transport.hpp"

namespace zipflm {

/// What a rank must do on entering its next collective — the transport
/// engine's view of CommWorld's private FaultAction.
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
    /// rank() except in a degraded world with retired ranks.
    int global_rank = 0;
  };

  /// The transport must outlive the communicator and is driven
  /// exclusively by this communicator's thread.
  TransportComm(net::Transport& transport, Topology topo, Hooks hooks);

  int rank() const noexcept override { return transport_.rank(); }
  int world_size() const noexcept override { return transport_.world_size(); }
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

  /// Fault hook at the head of every collective — same semantics as the
  /// shared-memory engine: Kill throws SimulatedRankDeath, Delay
  /// sleeps, Corrupt poisons the rank's own contribution with 0xFF
  /// bytes (deferred via pending_corrupt_ when no buffer exists yet).
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
  /// allreduce) — comm_internal::kReduceScatter / kAllgather.
  template <typename T, typename Red>
  void ring(std::span<T> data, CollOp op, const char* op_name, Red reduce,
            WireCodec codec, unsigned halves);

  /// Coded ring body: hops move encoded chunks behind u32 size
  /// prefixes; the allgather forwards the owner's encoding verbatim so
  /// every rank decodes identical bytes.
  template <typename T, typename Red>
  void ring_coded(std::span<T> data, Red reduce, WireCodec codec,
                  unsigned halves, std::uint64_t& moved_elems,
                  std::uint64_t& enc_wire);

  net::Transport& transport_;
  Topology topo_;
  Hooks hooks_;
  std::uint32_t seq_ = 0;  ///< collective counter, validated peer-to-peer
  WireCodec codec_ = WireCodec::None;
  bool pending_corrupt_ = false;
};

}  // namespace zipflm
