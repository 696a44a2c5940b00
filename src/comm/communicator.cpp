#include "zipflm/comm/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>

#include "comm_internal.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/tensor/cast.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {

using comm_internal::CommMetrics;

namespace {

int wrap(int x, int g) { return ((x % g) + g) % g; }

/// Which halves of the ring a collective runs: the reduce-scatter, the
/// allgather of every rank's chunk, or both (an allreduce).
constexpr unsigned kReduceScatter = 1;
constexpr unsigned kAllgather = 2;
constexpr unsigned kBothHalves = kReduceScatter | kAllgather;

constexpr std::uint32_t kCollMagic = 0x5A4C4331;  // "ZLC1"

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

/// The header size of a collective whose blocks differ across ranks.
constexpr std::uint64_t kIgnoreBytes = ~std::uint64_t{0};

// The mirror skips a delta's zero fields: every update is an atomic on
// a line all ranks share, and a collective fills only a few fields.
void add(obs::Counter& c, std::uint64_t v) {
  if (v != 0) c.add(v);
}

void add(obs::Gauge& g, double v) {
  if (v != 0.0) g.add(v);
}

void set_max(obs::Gauge& g, std::uint64_t v) {
  if (v != 0) g.set_max(static_cast<double>(v));
}

void poison(std::span<std::byte> buf) {
  if (!buf.empty()) std::memset(buf.data(), 0xFF, buf.size());
}

}  // namespace

namespace comm_internal {

void mirror(const TrafficLedger& d) {
  auto& m = CommMetrics::get();
  add(m.bytes_sent, d.bytes_sent);
  add(m.bytes_received, d.bytes_received);
  add(m.allreduce_calls, d.allreduce_calls);
  add(m.reduce_scatter_calls, d.reduce_scatter_calls);
  add(m.allgather_calls, d.allgather_calls);
  add(m.alltoall_calls, d.alltoall_calls);
  add(m.broadcast_calls, d.broadcast_calls);
  add(m.barrier_calls, d.barrier_calls);
  set_max(m.max_scratch_bytes, d.max_collective_scratch_bytes);
  set_max(m.max_allreduce_payload, d.max_allreduce_payload_bytes);
  set_max(m.max_reduce_scatter_payload, d.max_reduce_scatter_payload_bytes);
  set_max(m.max_allgather_payload, d.max_allgather_payload_bytes);
  set_max(m.max_alltoall_payload, d.max_alltoall_payload_bytes);
  set_max(m.max_broadcast_payload, d.max_broadcast_payload_bytes);
  add(m.simulated_seconds, d.simulated_comm_seconds);
  add(m.wire_bytes_sent, d.wire_bytes_sent);
  add(m.wire_bytes_received, d.wire_bytes_received);
  add(m.real_seconds, d.real_comm_seconds);
  add(m.codec_logical_bytes, d.codec.logical_bytes);
  add(m.codec_wire_bytes, d.codec.wire_bytes);
  if (d.codec.wire_bytes != 0) m.compression_ratio.set(d.codec.ratio());
}

}  // namespace comm_internal

Communicator::Communicator(net::Transport& transport, Topology topo,
                           Hooks hooks)
    : Communicator(transport, topo, std::move(hooks), {}, transport.rank()) {}

Communicator::Communicator(net::Transport& transport, Topology topo,
                           Hooks hooks, std::vector<int> members, int rank)
    : transport_(transport),
      topo_(topo),
      hooks_(std::move(hooks)),
      members_(std::move(members)),
      rank_(rank),
      size_(members_.empty() ? transport.world_size()
                             : static_cast<int>(members_.size())) {
  ZIPFLM_CHECK(hooks_.ledger != nullptr,
               "Communicator needs a TrafficLedger sink");
  ZIPFLM_CHECK(hooks_.cost != nullptr, "Communicator needs a CostModel");
  ZIPFLM_CHECK(topo_.world_size() == size_,
               "topology must match the communicator's world size");
}

Communicator* Communicator::node_comm() noexcept {
  if (!members_.empty()) return nullptr;
  if (node_ == nullptr) {
    const int gpn = topo_.gpus_per_node;
    const int first = topo_.node_of(rank_) * gpn;
    std::vector<int> members(static_cast<std::size_t>(gpn));
    std::iota(members.begin(), members.end(), first);
    node_.reset(new Communicator(transport_, Topology{1, gpn}, hooks_,
                                 std::move(members), rank_ - first));
  }
  return node_.get();
}

Communicator* Communicator::leader_comm() noexcept {
  const int gpn = topo_.gpus_per_node;
  if (!members_.empty() || topo_.nodes <= 1 || rank_ % gpn != 0) {
    return nullptr;
  }
  if (leaders_ == nullptr) {
    std::vector<int> members(static_cast<std::size_t>(topo_.nodes));
    for (int n = 0; n < topo_.nodes; ++n) {
      members[static_cast<std::size_t>(n)] = n * gpn;
    }
    leaders_.reset(new Communicator(transport_, Topology{topo_.nodes, 1},
                                    hooks_, std::move(members), rank_ / gpn));
  }
  return leaders_.get();
}

void Communicator::enter_collective(std::span<std::byte> own) {
  if (!hooks_.fault) return;
  const TransportFault act = hooks_.fault();
  if (!act.armed) return;
  switch (act.kind) {
    case FaultKind::Kill:
      throw SimulatedRankDeath{hooks_.global_rank};
    case FaultKind::Delay:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(act.delay_seconds));
      break;
    case FaultKind::Corrupt:
      if (own.data() != nullptr) {
        poison(own);
      } else {
        pending_corrupt_ = true;  // applied once a buffer exists
      }
      break;
  }
}

void Communicator::handshake(const Call& call) {
  const std::uint64_t bytes = call.sized ? call.payload : kIgnoreBytes;
  WireHeader mine;
  mine.magic = kCollMagic;
  mine.op = static_cast<std::uint8_t>(call.op);
  mine.pad[0] = static_cast<std::uint8_t>(call.codec);
  mine.root = call.root;
  mine.seq = seq_;
  mine.coll_bytes = bytes;
  // Round one swaps headers with the ring neighbours.  A barrier is the
  // header exchange alone, run as a dissemination barrier: after round
  // k every rank has (transitively) heard from all ranks within
  // distance 2^(k+1), so ceil(log2 g) rounds make a full rendezvous.
  const int g = world_size();
  for (int dist = 1; dist < g; dist <<= 1) {
    WireHeader got;
    auto sent = send(wrap(rank() + dist, g),
                     std::as_bytes(std::span<const WireHeader>(&mine, 1)));
    recv(wrap(rank() - dist, g),
         std::as_writable_bytes(std::span<WireHeader>(&got, 1)))
        .wait();
    sent.wait();
    if (got.magic != kCollMagic) {
      throw CollectiveMismatchError(
          "collective frame with bad magic — transport streams desynced");
    }
    if (got.op != mine.op || got.seq != seq_) {
      throw CollectiveMismatchError(
          "ranks invoked different collectives in the same step");
    }
    if (got.coll_bytes != bytes) {
      throw CollectiveMismatchError(
          "ranks invoked a collective with mismatched payload sizes");
    }
    if (got.root != call.root) {
      throw CollectiveMismatchError(
          "ranks invoked a rooted collective with different roots");
    }
    if (got.pad[0] != mine.pad[0]) {
      throw CollectiveMismatchError(
          "ranks invoked a collective with mismatched wire codecs");
    }
    if (call.op != CollOp::Barrier) break;
  }
  ++seq_;
}

/// A collective's bookkeeping, run on every exit path: the delta the
/// body filled in, plus what the transport measured since entry — wire
/// bytes, wall-clock seconds and wait times — into the rank's ledger
/// and the "comm/..." mirror.
class Communicator::Booking {
 public:
  explicit Booking(Communicator& comm)
      : comm_(comm),
        before_(comm.transport_.stats()),
        start_(std::chrono::steady_clock::now()) {}

  ~Booking() {
    const net::NetStats& now = comm_.transport_.stats();
    delta.wire_bytes_sent = now.wire_bytes_sent - before_.wire_bytes_sent;
    delta.wire_bytes_received =
        now.wire_bytes_received - before_.wire_bytes_received;
    delta.real_comm_seconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start_)
                                  .count();
    comm_.ledger() += delta;
    comm_internal::mirror(delta);
    auto& m = CommMetrics::get();
    const double send_wait = now.send_wait_seconds - before_.send_wait_seconds;
    const double recv_wait = now.recv_wait_seconds - before_.recv_wait_seconds;
    if (send_wait > 0.0) m.net_send_wait.record(send_wait);
    if (recv_wait > 0.0) m.net_recv_wait.record(recv_wait);
  }

  Booking(const Booking&) = delete;
  Booking& operator=(const Booking&) = delete;

  TrafficLedger delta;

 private:
  Communicator& comm_;
  net::NetStats before_;
  std::chrono::steady_clock::time_point start_;
};

template <typename Body>
void Communicator::collective(const Call& call, Body&& body) {
  obs::SpanScope span(call.name,
                      call.op == CollOp::Barrier ? nullptr : "payload_bytes",
                      static_cast<double>(call.payload));
  enter_collective(call.own);

  Booking booking(*this);

  try {
    handshake(call);
    body(booking.delta, span);
  } catch (const net::TransportTimeoutError& e) {
    throw CollectiveTimeoutError(std::string(call.name) +
                                 " timed out on the transport (" + e.what() +
                                 ")");
  } catch (const net::PeerClosedError& e) {
    throw CollectiveTimeoutError(std::string(call.name) +
                                 " lost a peer mid-collective (" + e.what() +
                                 ")");
  } catch (const net::ProtocolError& e) {
    throw CollectiveMismatchError(std::string(call.name) + ": " + e.what());
  }
}

template <typename Block>
std::uint64_t Communicator::ring_forward(int first, Block block) {
  const int g = world_size();
  const int right = wrap(rank() + 1, g);
  const int left = wrap(rank() - 1, g);
  std::uint64_t sent_bytes = 0;
  for (int s = 0; s + 1 < g; ++s) {
    const std::span<std::byte> out = block(wrap(first - s, g));
    auto sent = send(right, out);
    auto got = recv(left, block(wrap(first - s - 1, g)));
    got.wait();
    sent.wait();
    sent_bytes += out.size();
  }
  return sent_bytes;
}

void Communicator::barrier() {
  collective({.op = CollOp::Barrier, .name = "barrier"},
             [](TrafficLedger& d, obs::SpanScope&) { d.barrier_calls = 1; });
}

template <typename T, typename Red>
void Communicator::ring_coded(std::span<T> data, Red reduce, WireCodec codec,
                              unsigned halves, std::uint64_t& moved_elems,
                              std::uint64_t& enc_wire) {
  const int g = world_size();
  const int right = wrap(rank() + 1, g);
  const int left = wrap(rank() - 1, g);
  const std::size_t n = data.size();
  T* const scratch = recv_buffer<T>(ring_chunk(n, g, 0).size());
  std::vector<std::byte> enc_send, enc_recv, enc_fwd;

  // One ring hop of encoded bytes: every chunk encodes to
  // encoded_chunk_bytes(its length), so the receiver sizes its buffer
  // from the chunk schedule and a hop is one send and one receive.
  // Empty chunks move zero bytes, mirroring the raw path.
  auto hop = [&](const std::vector<std::byte>& out_buf,
                 std::size_t recv_elems) {
    enc_recv.resize(recv_elems == 0 ? 0 : encoded_chunk_bytes(recv_elems));
    auto sent = send(right, std::span<const std::byte>(out_buf));
    auto got = recv(left, std::span<std::byte>(enc_recv));
    got.wait();
    sent.wait();
    enc_wire += out_buf.size();
  };

  // Reduce-scatter over encoded partials.  The operand the reducer sees
  // is decode(encode(left partial)).
  for (int s = 0; s + 1 < g; ++s) {
    const auto sr = ring_chunk(n, g, wrap(rank() - s, g));
    const auto rr = ring_chunk(n, g, wrap(rank() - s - 1, g));
    if (sr.size() != 0) {
      encode_grad_chunk(
          codec, std::span<const T>(data.data() + sr.begin, sr.size()),
          enc_send);
    } else {
      enc_send.clear();
    }
    hop(enc_send, rr.size());
    if (rr.size() != 0) {
      decode_grad_chunk(codec, std::span<const std::byte>(enc_recv),
                        std::span<T>(scratch, rr.size()));
      reduce(data.data() + rr.begin, scratch, rr.size());
    }
    moved_elems += sr.size();
  }

  // The owner encodes its completed chunk exactly once and replaces its
  // own copy with the decode of that encoding, so the owner — and,
  // after the allgather, every rank — ends at decode(encode(final)).
  const auto own = ring_chunk(n, g, wrap(rank() + 1, g));
  enc_send.clear();
  if (own.size() != 0) {
    const std::span<T> owned(data.data() + own.begin, own.size());
    encode_grad_chunk(codec, std::span<const T>(owned), enc_send);
    decode_grad_chunk(codec, std::span<const std::byte>(enc_send), owned);
  }
  if ((halves & kAllgather) == 0) return;

  // Allgather of encoded final chunks: every later hop forwards the
  // owner's bytes verbatim, so all ranks decode the identical encoding.
  for (int s = 0; s + 1 < g; ++s) {
    const auto sr = ring_chunk(n, g, wrap(rank() + 1 - s, g));
    const auto rr = ring_chunk(n, g, wrap(rank() - s, g));
    hop(s == 0 ? enc_send : enc_fwd, rr.size());
    if (rr.size() != 0) {
      decode_grad_chunk(codec, std::span<const std::byte>(enc_recv),
                        std::span<T>(data.data() + rr.begin, rr.size()));
    }
    enc_fwd.swap(enc_recv);
    moved_elems += sr.size();
  }
}

template <typename T, typename Red>
void Communicator::ring(std::span<T> data, CollOp op, const char* op_name,
                        Red reduce, WireCodec codec, unsigned halves) {
  const std::size_t payload = data.size() * sizeof(T);
  collective({.op = op,
              .name = op_name,
              .payload = payload,
              .codec = codec,
              .own = std::as_writable_bytes(data)},
             [&](TrafficLedger& d, obs::SpanScope& span) {
    const int g = world_size();
    const std::size_t n = data.size();
    // The call and its peak payload, under the collective's family (an
    // allgather's per-rank block is the largest chunk).
    if (halves == kBothHalves) {
      d.allreduce_calls = 1;
      d.max_allreduce_payload_bytes = payload;
    } else if (halves == kReduceScatter) {
      d.reduce_scatter_calls = 1;
      d.max_reduce_scatter_payload_bytes = payload;
    } else {
      d.allgather_calls = 1;
      d.max_allgather_payload_bytes = ring_chunk(n, g, 0).size() * sizeof(T);
    }
    if (g <= 1 || data.empty()) return;

    std::uint64_t moved_elems = 0;
    if (codec != WireCodec::None) {
      std::uint64_t enc_wire = 0;
      ring_coded<T, Red>(data, reduce, codec, halves, moved_elems, enc_wire);
      d.codec = {moved_elems * sizeof(T), enc_wire};
      // The span carries the measured encoded volume so a merged trace
      // can show compression ratios without the ledger.
      span.set_arg3("wire_bytes", static_cast<double>(enc_wire));
      span.set_arg4("codec", static_cast<double>(static_cast<int>(codec)));
    } else {
      if ((halves & kReduceScatter) != 0) {
        // Chunk 0 is always the largest (the first n%g chunks carry the
        // remainder), so one receive buffer serves every hop.
        T* const scratch = recv_buffer<T>(ring_chunk(n, g, 0).size());
        const int right = wrap(rank() + 1, g);
        const int left = wrap(rank() - 1, g);
        // Step s: send our partial of chunk (rank - s) right, receive the
        // left neighbour's partial of chunk (rank - s - 1), and
        // accumulate it as `mine += left` on the whole contiguous chunk
        // — the FP addition tree tests/reference_ring.hpp replays.  The
        // in-process transport hands a large left partial over in place,
        // so a hop costs the reduce alone.  A partial that landed in
        // scratch is reduced only once our send has drained, so a socket
        // keeps feeding the right neighbour first.
        for (int s = 0; s + 1 < g; ++s) {
          const auto sr = ring_chunk(n, g, wrap(rank() - s, g));
          const auto rr = ring_chunk(n, g, wrap(rank() - s - 1, g));
          auto sent = send(
              right, std::as_bytes(data.subspan(sr.begin, sr.size())));
          const auto into =
              std::as_writable_bytes(std::span<T>(scratch, rr.size()));
          bool reduced = false;
          recv_in_place(left, into, [&](std::span<const std::byte> partial) {
            if (partial.data() == into.data()) return;  // landed in scratch
            reduce(data.data() + rr.begin,
                   reinterpret_cast<const T*>(partial.data()), rr.size());
            reduced = true;
          });
          sent.wait();
          if (!reduced && rr.size() != 0) {
            reduce(data.data() + rr.begin, scratch, rr.size());
          }
          moved_elems += sr.size();
        }
      }
      if ((halves & kAllgather) != 0) {
        // Forward the completed chunks, starting from our own (rank + 1),
        // each received straight into place.
        const std::uint64_t sent = ring_forward(rank() + 1, [&](int c) {
          const auto r = ring_chunk(n, g, c);
          return std::as_writable_bytes(data.subspan(r.begin, r.size()));
        });
        moved_elems += sent / sizeof(T);
      }
    }

    // Logical payload accounting stays in raw-element terms for every
    // codec (the closed-form ledger identities hold codec-on or off);
    // the measured encoded volume lands in wire_bytes_* and in the
    // ledger's codec row above.
    d.bytes_sent = d.bytes_received = moved_elems * sizeof(T);
    d.simulated_comm_seconds =
        halves == kBothHalves
            ? hooks_.cost->ring_allreduce_seconds(topo_, payload)
            : hooks_.cost->ring_reduce_scatter_seconds(topo_, payload);
    span.set_arg2("sim_seconds", d.simulated_comm_seconds);
  });
}

namespace {
void add_f32(float* mine, const float* left, std::size_t n) {
  simd::add_inplace(mine, left, n);
}
void add_f16(Half* mine, const Half* left, std::size_t n) {
  half_accumulate(mine, left, n);
}
}  // namespace

void Communicator::allreduce_sum(std::span<float> data) {
  ring<float>(data, CollOp::AllReduceF32, "allreduce_f32", add_f32, codec_,
              kBothHalves);
}

void Communicator::allreduce_sum(std::span<Half> data) {
  ring<Half>(data, CollOp::AllReduceF16, "allreduce_f16", add_f16, codec_,
             kBothHalves);
}

void Communicator::allreduce_max(std::span<float> data) {
  // Never coded: overflow voting must stay exact.
  ring<float>(data, CollOp::AllReduceMaxF32, "allreduce_max",
              [](float* mine, const float* left, std::size_t n) {
                for (std::size_t j = 0; j < n; ++j) {
                  mine[j] = std::max(mine[j], left[j]);
                }
              },
              WireCodec::None, kBothHalves);
}

void Communicator::reduce_scatter_sum(std::span<float> data) {
  ring<float>(data, CollOp::ReduceScatterF32, "reduce_scatter_f32", add_f32,
              codec_, kReduceScatter);
}

void Communicator::reduce_scatter_sum(std::span<Half> data) {
  ring<Half>(data, CollOp::ReduceScatterF16, "reduce_scatter_f16", add_f16,
             codec_, kReduceScatter);
}

void Communicator::allgather_chunks(std::span<float> data) {
  ring<float>(data, CollOp::AllGatherChunks, "allgather_chunks", add_f32,
              WireCodec::None, kAllgather);
}

void Communicator::allgather_bytes(std::span<const std::byte> local,
                                   std::span<std::byte> out) {
  const int g = world_size();
  ZIPFLM_CHECK(out.size() == local.size() * static_cast<std::size_t>(g),
               "allgather output must be world_size * block bytes");
  const std::size_t b = local.size();
  const auto block = [&](int r) {
    return out.subspan(static_cast<std::size_t>(r) * b, b);
  };
  std::memcpy(block(rank()).data(), local.data(), b);
  collective({.op = CollOp::AllGather,
              .name = "allgather",
              .payload = b,
              .own = block(rank())},
             [&](TrafficLedger& d, obs::SpanScope& span) {
    if (g > 1 && b != 0) ring_forward(rank(), block);
    d.allgather_calls = 1;
    d.bytes_sent = d.bytes_received = static_cast<std::uint64_t>(g - 1) * b;
    d.max_collective_scratch_bytes = out.size();
    d.max_allgather_payload_bytes = b;
    d.simulated_comm_seconds = hooks_.cost->ring_allgather_seconds(topo_, b);
    span.set_arg2("sim_seconds", d.simulated_comm_seconds);
  });
}

void Communicator::allgatherv_bytes(std::span<const std::byte> local,
                                    std::vector<std::byte>& out,
                                    std::vector<std::size_t>& counts) {
  const auto self = static_cast<std::size_t>(rank());
  // The own block is poisoned after staging below.
  collective({.op = CollOp::AllGatherV,
              .name = "allgatherv",
              .payload = local.size(),
              .sized = false},
             [&](TrafficLedger& d, obs::SpanScope& span) {
    const int g = world_size();
    // Phase 1: ring-allgather the per-rank block sizes (the ledger
    // accounts this as 8 bytes per rank on the wire).
    std::vector<std::uint64_t> sizes(static_cast<std::size_t>(g), 0);
    sizes[self] = local.size();
    ring_forward(rank(), [&](int r) {
      return std::as_writable_bytes(
          std::span<std::uint64_t>(&sizes[static_cast<std::size_t>(r)], 1));
    });
    counts.assign(sizes.begin(), sizes.end());
    std::vector<std::size_t> offsets(static_cast<std::size_t>(g) + 1, 0);
    std::partial_sum(counts.begin(), counts.end(), offsets.begin() + 1);
    out.assign(offsets.back(), std::byte{});
    const std::span<std::byte> own(out.data() + offsets[self], local.size());
    if (!local.empty()) std::memcpy(own.data(), local.data(), local.size());
    if (pending_corrupt_) {
      pending_corrupt_ = false;
      poison(own);
    }
    // Phase 2: forward the variably-sized blocks around the ring, each
    // landing straight at its final offset.
    ring_forward(rank(), [&](int r) {
      const auto i = static_cast<std::size_t>(r);
      return std::span<std::byte>(out.data() + offsets[i], counts[i]);
    });

    std::size_t max_block = 0;
    for (std::size_t r = 0; r < counts.size(); ++r) {
      if (r != self) max_block = std::max(max_block, counts[r]);
    }
    d.allgather_calls = 1;
    d.bytes_sent = d.bytes_received =
        (out.size() - local.size()) +
        static_cast<std::uint64_t>(g - 1) * sizeof(std::size_t);
    d.max_collective_scratch_bytes = out.size();
    d.max_allgather_payload_bytes = local.size();
    d.simulated_comm_seconds =
        hooks_.cost->ring_allgather_seconds(topo_, sizeof(std::size_t)) +
        static_cast<double>(g - 1) *
            hooks_.cost->ring_step_seconds(topo_, max_block);
    span.set_arg2("sim_seconds", d.simulated_comm_seconds);
    span.set_arg3("wire_bytes", static_cast<double>(d.bytes_sent));
  });
}

void Communicator::alltoallv_bytes(std::span<const std::byte> send,
                                   std::span<const std::size_t> send_counts,
                                   std::vector<std::byte>& out,
                                   std::vector<std::size_t>& recv_counts) {
  const int g = world_size();
  ZIPFLM_CHECK(send_counts.size() == static_cast<std::size_t>(g),
               "alltoallv needs one send count per rank");
  std::vector<std::size_t> send_off(static_cast<std::size_t>(g) + 1, 0);
  std::partial_sum(send_counts.begin(), send_counts.end(),
                   send_off.begin() + 1);
  ZIPFLM_CHECK(send_off.back() == send.size(),
               "alltoallv send counts must sum to the payload size");
  // Stage the outgoing concatenation so a Corrupt fault poisons this
  // rank's contribution (the self block included) without touching the
  // caller's buffer.
  std::vector<std::byte> staged(send.begin(), send.end());
  collective({.op = CollOp::AllToAllV,
              .name = "alltoallv",
              .payload = send.size(),
              .sized = false,
              .own = staged},
             [&](TrafficLedger& d, obs::SpanScope& span) {
    // Phase 1: pairwise per-destination sizes at ring distances
    // 1..g-1 (the ledger accounts them as 8 bytes per peer).
    recv_counts.assign(static_cast<std::size_t>(g), 0);
    recv_counts[static_cast<std::size_t>(rank())] =
        send_counts[static_cast<std::size_t>(rank())];
    for (int s = 1; s < g; ++s) {
      const int to = wrap(rank() + s, g);
      const int from = wrap(rank() - s, g);
      std::uint64_t mine = send_counts[static_cast<std::size_t>(to)];
      std::uint64_t theirs = 0;
      auto sent = this->send(
          to, std::as_bytes(std::span<const std::uint64_t>(&mine, 1)));
      recv(from, std::as_writable_bytes(std::span<std::uint64_t>(&theirs, 1)))
          .wait();
      sent.wait();
      recv_counts[static_cast<std::size_t>(from)] =
          static_cast<std::size_t>(theirs);
    }
    std::vector<std::size_t> offsets(static_cast<std::size_t>(g) + 1, 0);
    std::partial_sum(recv_counts.begin(), recv_counts.end(),
                     offsets.begin() + 1);
    out.assign(offsets.back(), std::byte{});
    const std::size_t self = static_cast<std::size_t>(rank());
    if (recv_counts[self] != 0) {
      std::memcpy(out.data() + offsets[self], staged.data() + send_off[self],
                  recv_counts[self]);
    }
    // Phase 2: pairwise payload blocks over the same distance schedule,
    // each landing straight at its final offset.
    for (int s = 1; s < g; ++s) {
      const auto to = static_cast<std::size_t>(wrap(rank() + s, g));
      const auto from = static_cast<std::size_t>(wrap(rank() - s, g));
      auto sent = this->send(
          static_cast<int>(to),
          std::span<const std::byte>(staged.data() + send_off[to],
                                     send_counts[to]));
      auto got = recv(
          static_cast<int>(from),
          std::span<std::byte>(out.data() + offsets[from], recv_counts[from]));
      got.wait();
      sent.wait();
    }

    d.alltoall_calls = 1;
    d.bytes_sent = d.bytes_received =
        static_cast<std::uint64_t>(g - 1) * sizeof(std::size_t);
    d.simulated_comm_seconds =
        hooks_.cost->ring_allgather_seconds(topo_, sizeof(std::size_t));
    for (int s = 1; s < g; ++s) {
      const auto to = static_cast<std::size_t>(wrap(rank() + s, g));
      const auto from = static_cast<std::size_t>(wrap(rank() - s, g));
      d.bytes_sent += send_counts[to];
      d.bytes_received += recv_counts[from];
      d.simulated_comm_seconds += hooks_.cost->ring_step_seconds(
          topo_, std::max(send_counts[to], recv_counts[from]));
    }
    d.max_collective_scratch_bytes = send.size() + out.size();
    d.max_alltoall_payload_bytes = send.size();
    span.set_arg2("sim_seconds", d.simulated_comm_seconds);
    span.set_arg3("wire_bytes", static_cast<double>(d.bytes_sent));
  });
}

void Communicator::broadcast_bytes(std::span<std::byte> data, int root) {
  const int g = world_size();
  ZIPFLM_CHECK(root >= 0 && root < g, "broadcast root out of range");
  const bool tail = rank() == wrap(root - 1, g);
  collective({.op = CollOp::Broadcast,
              .name = "broadcast",
              .payload = data.size(),
              .root = root,
              .own = rank() == root ? data : std::span<std::byte>()},
             [&](TrafficLedger& d, obs::SpanScope& span) {
    if (g > 1 && !data.empty()) {
      // Chain from the root: every rank but the root receives from its
      // left, every rank but the chain tail forwards right — the same
      // pipelined-ring shape the ledger formulas price.
      if (rank() != root) recv(wrap(rank() - 1, g), data).wait();
      if (!tail) send(wrap(rank() + 1, g), data).wait();
    }
    d.broadcast_calls = 1;
    if (!tail) d.bytes_sent = data.size();
    if (rank() != root) d.bytes_received = data.size();
    d.max_broadcast_payload_bytes = data.size();
    d.simulated_comm_seconds =
        hooks_.cost->broadcast_seconds(topo_, data.size());
    span.set_arg2("sim_seconds", d.simulated_comm_seconds);
  });
}

}  // namespace zipflm
