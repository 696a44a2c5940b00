#include "zipflm/comm/transport_comm.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>

#include "comm_internal.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/tensor/cast.hpp"
#include "zipflm/tensor/simd.hpp"

namespace zipflm {

using comm_internal::book_ring_call;
using comm_internal::book_ring_traffic;
using comm_internal::chunk_range;
using comm_internal::CommMetrics;
using comm_internal::kAllgather;
using comm_internal::kBothHalves;
using comm_internal::kReduceScatter;
using comm_internal::wrap;

namespace {
constexpr std::uint32_t kCollMagic = 0x5A4C4331;  // "ZLC1"

void poison(std::byte* buf, std::size_t bytes) {
  if (buf != nullptr && bytes != 0) std::memset(buf, 0xFF, bytes);
}
}  // namespace

TransportComm::TransportComm(net::Transport& transport, Topology topo,
                             Hooks hooks)
    : transport_(transport), topo_(topo), hooks_(std::move(hooks)) {
  ZIPFLM_CHECK(hooks_.ledger != nullptr,
               "TransportComm needs a TrafficLedger sink");
  ZIPFLM_CHECK(hooks_.cost != nullptr, "TransportComm needs a CostModel");
  ZIPFLM_CHECK(topo_.world_size() == transport_.world_size(),
               "topology must match the transport's world size");
}

TransportComm::WireScope::WireScope(TransportComm& comm)
    : comm_(comm),
      before_(comm.transport_.stats()),
      start_(std::chrono::steady_clock::now()) {}

TransportComm::WireScope::~WireScope() {
  const net::NetStats& now = comm_.transport_.stats();
  const double real = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  auto& led = comm_.ledger();
  led.wire_bytes_sent += now.wire_bytes_sent - before_.wire_bytes_sent;
  led.wire_bytes_received +=
      now.wire_bytes_received - before_.wire_bytes_received;
  led.real_comm_seconds += real;

  auto& m = CommMetrics::get();
  m.wire_bytes_sent.add(now.wire_bytes_sent - before_.wire_bytes_sent);
  m.wire_bytes_received.add(now.wire_bytes_received -
                            before_.wire_bytes_received);
  m.real_seconds.add(real);
  const double send_wait = now.send_wait_seconds - before_.send_wait_seconds;
  const double recv_wait = now.recv_wait_seconds - before_.recv_wait_seconds;
  if (send_wait > 0.0) m.net_send_wait.record(send_wait);
  if (recv_wait > 0.0) m.net_recv_wait.record(recv_wait);
}

void TransportComm::enter_collective(std::byte* buf, std::size_t bytes) {
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
      if (buf != nullptr) {
        poison(buf, bytes);
      } else {
        pending_corrupt_ = true;  // applied once a buffer exists
      }
      break;
  }
}

TransportComm::WireHeader TransportComm::make_header(CollOp op,
                                                     std::uint64_t bytes,
                                                     int root,
                                                     WireCodec codec) const {
  WireHeader h;
  h.magic = kCollMagic;
  h.op = static_cast<std::uint8_t>(op);
  h.pad[0] = static_cast<std::uint8_t>(codec);
  h.root = root;
  h.seq = seq_;
  h.coll_bytes = bytes;
  return h;
}

void TransportComm::validate_header(const WireHeader& got, CollOp op,
                                    std::uint64_t bytes, int root,
                                    WireCodec codec) const {
  if (got.magic != kCollMagic) {
    throw CollectiveMismatchError(
        "collective frame with bad magic — transport streams desynced");
  }
  if (got.op != static_cast<std::uint8_t>(op) || got.seq != seq_) {
    throw CollectiveMismatchError(
        "ranks invoked different collectives in the same step");
  }
  if (got.coll_bytes != bytes) {
    throw CollectiveMismatchError(
        "ranks invoked a collective with mismatched payload sizes");
  }
  if (got.root != root) {
    throw CollectiveMismatchError(
        "ranks invoked a rooted collective with different roots");
  }
  if (got.pad[0] != static_cast<std::uint8_t>(codec)) {
    throw CollectiveMismatchError(
        "ranks invoked a collective with mismatched wire codecs");
  }
}

void TransportComm::neighbor_handshake(CollOp op, std::uint64_t bytes,
                                       int root, WireCodec codec) {
  const int g = world_size();
  if (g > 1) {
    const WireHeader mine = make_header(op, bytes, root, codec);
    WireHeader theirs;
    auto sent = transport_.send(
        wrap(rank() + 1, g),
        std::as_bytes(std::span<const WireHeader>(&mine, 1)));
    transport_.recv_blocking(
        wrap(rank() - 1, g),
        std::as_writable_bytes(std::span<WireHeader>(&theirs, 1)));
    sent.wait();
    validate_header(theirs, op, bytes, root, codec);
  }
  ++seq_;
}

void TransportComm::rethrow_as_collective(const char* coll) {
  try {
    throw;
  } catch (const net::TransportTimeoutError& e) {
    throw CollectiveTimeoutError(std::string(coll) +
                                 " timed out on the transport (" + e.what() +
                                 ")");
  } catch (const net::PeerClosedError& e) {
    throw CollectiveTimeoutError(std::string(coll) +
                                 " lost a peer mid-collective (" + e.what() +
                                 ")");
  } catch (const net::ProtocolError& e) {
    throw CollectiveMismatchError(std::string(coll) + ": " + e.what());
  }
}

void TransportComm::barrier() {
  obs::SpanScope span("barrier");
  enter_collective(nullptr, 0);
  WireScope wire(*this);
  try {
    // Dissemination barrier: after round k every rank has (transitively)
    // heard from all ranks within distance 2^(k+1), so ceil(log2 g)
    // header-only rounds make a full rendezvous.
    const int g = world_size();
    const WireHeader mine = make_header(CollOp::Barrier, 0, -1, WireCodec::None);
    for (int dist = 1; dist < g; dist <<= 1) {
      WireHeader theirs;
      auto sent = transport_.send(
          wrap(rank() + dist, g),
          std::as_bytes(std::span<const WireHeader>(&mine, 1)));
      transport_.recv_blocking(
          wrap(rank() - dist, g),
          std::as_writable_bytes(std::span<WireHeader>(&theirs, 1)));
      sent.wait();
      validate_header(theirs, CollOp::Barrier, 0, -1, WireCodec::None);
    }
    ++seq_;
  } catch (const net::TransportError&) {
    rethrow_as_collective("barrier");
  }
  ++ledger().barrier_calls;
  CommMetrics::get().barrier_calls.add(1);
}

template <typename T, typename Red>
void TransportComm::ring_coded(std::span<T> data, Red reduce, WireCodec codec,
                               unsigned halves, std::uint64_t& moved_elems,
                               std::uint64_t& enc_wire) {
  const int g = world_size();
  const int right = wrap(rank() + 1, g);
  const int left = wrap(rank() - 1, g);
  const std::size_t n = data.size();
  std::vector<T> scratch(chunk_range(n, g, 0).size());
  std::vector<std::byte> enc_send, enc_recv, enc_fwd;

  // One ring hop of encoded bytes: a u32 size exchange followed by the
  // variably-sized payload (chunk encodings differ in length between
  // neighbours).  Empty chunks send zero bytes, mirroring the raw path.
  auto hop = [&](const std::vector<std::byte>& out_buf) {
    std::uint32_t send_n = static_cast<std::uint32_t>(out_buf.size());
    std::uint32_t recv_n = 0;
    auto s1 = transport_.send(
        right, std::as_bytes(std::span<const std::uint32_t>(&send_n, 1)));
    auto r1 = transport_.recv(
        left, std::as_writable_bytes(std::span<std::uint32_t>(&recv_n, 1)));
    r1.wait();
    s1.wait();
    enc_recv.resize(recv_n);
    auto s2 = transport_.send(right, std::span<const std::byte>(out_buf));
    auto r2 = transport_.recv(left, std::span<std::byte>(enc_recv));
    r2.wait();
    s2.wait();
    enc_wire += sizeof(std::uint32_t) + out_buf.size();
  };

  // Reduce-scatter over encoded partials.  The operand the reducer sees
  // is decode(encode(left partial)) — for a lossless codec that is the
  // partial itself (identical arithmetic to the raw path); for INT8 the
  // shared-memory engine performs the same round-trip on the published
  // values, keeping the addition trees bitwise equal.
  for (int s = 0; s + 1 < g; ++s) {
    const auto sr = chunk_range(n, g, wrap(rank() - s, g));
    const auto rr = chunk_range(n, g, wrap(rank() - s - 1, g));
    if (sr.size() != 0) {
      encode_grad_chunk(
          codec, std::span<const T>(data.data() + sr.begin, sr.size()),
          enc_send);
    } else {
      enc_send.clear();
    }
    hop(enc_send);
    if (rr.size() != 0) {
      decode_grad_chunk(codec, std::span<const std::byte>(enc_recv),
                        std::span<T>(scratch.data(), rr.size()));
      reduce(data.data() + rr.begin, scratch.data(), rr.size());
    }
    moved_elems += sr.size();
  }

  // The owner encodes its completed chunk exactly once.  For a lossy
  // codec it also replaces its own copy with the decode of that
  // encoding, so the owner — and, after the allgather, every rank —
  // ends at decode(encode(final)).
  const bool lossy = codec == WireCodec::Int8;
  const auto own = chunk_range(n, g, wrap(rank() + 1, g));
  enc_send.clear();
  if (own.size() != 0 && (lossy || (halves & kAllgather) != 0)) {
    const std::span<T> owned(data.data() + own.begin, own.size());
    encode_grad_chunk(codec, std::span<const T>(owned), enc_send);
    if (lossy) {
      decode_grad_chunk(codec, std::span<const std::byte>(enc_send), owned);
    }
  }
  if ((halves & kAllgather) == 0) return;

  // Allgather of encoded final chunks: every later hop forwards the
  // owner's bytes verbatim, so all ranks decode the identical encoding.
  for (int s = 0; s + 1 < g; ++s) {
    const auto sr = chunk_range(n, g, wrap(rank() + 1 - s, g));
    const auto rr = chunk_range(n, g, wrap(rank() - s, g));
    hop(s == 0 ? enc_send : enc_fwd);
    if (rr.size() != 0) {
      decode_grad_chunk(codec, std::span<const std::byte>(enc_recv),
                        std::span<T>(data.data() + rr.begin, rr.size()));
    }
    enc_fwd.swap(enc_recv);
    moved_elems += sr.size();
  }
}

template <typename T, typename Red>
void TransportComm::ring(std::span<T> data, CollOp op, const char* op_name,
                         Red reduce, WireCodec codec, unsigned halves) {
  const int g = world_size();
  const std::size_t payload = data.size() * sizeof(T);
  obs::SpanScope span(op_name, "payload_bytes", static_cast<double>(payload));
  enter_collective(reinterpret_cast<std::byte*>(data.data()), payload);
  WireScope wire(*this);
  try {
    neighbor_handshake(op, payload, -1, codec);

    auto& led = ledger();
    const std::size_t n = data.size();
    book_ring_call(led, halves, payload,
                   chunk_range(n, g, 0).size() * sizeof(T));
    if (g <= 1 || data.empty()) return;

    const int right = wrap(rank() + 1, g);
    const int left = wrap(rank() - 1, g);
    std::uint64_t moved_elems = 0;
    if (codec != WireCodec::None) {
      std::uint64_t enc_wire = 0;
      ring_coded<T, Red>(data, reduce, codec, halves, moved_elems, enc_wire);
      record_codec_traffic(led,
                           codec == WireCodec::Packed ? CodecSlot::Packed
                                                      : CodecSlot::Int8,
                           moved_elems * sizeof(T), enc_wire);
      // The span carries the measured encoded volume so a merged trace
      // can show compression ratios without the ledger.
      span.set_arg3("wire_bytes", static_cast<double>(enc_wire));
      span.set_arg4("codec", static_cast<double>(static_cast<int>(codec)));
    } else {
      if ((halves & kReduceScatter) != 0) {
        // Chunk 0 is always the largest (the first n%g chunks carry the
        // remainder), so one scratch buffer serves every receive.
        std::vector<T> scratch(chunk_range(n, g, 0).size());
        // Step s: send our partial of chunk (rank - s) right, receive the
        // left neighbour's partial of chunk (rank - s - 1), and
        // accumulate it as `mine += left` — the same operand order, on
        // the same contiguous ranges, as the shared-memory engine, so
        // the FP addition tree is identical.
        for (int s = 0; s + 1 < g; ++s) {
          const auto sr = chunk_range(n, g, wrap(rank() - s, g));
          const auto rr = chunk_range(n, g, wrap(rank() - s - 1, g));
          auto sent = transport_.send(
              right, std::as_bytes(data.subspan(sr.begin, sr.size())));
          auto got = transport_.recv(
              left, std::as_writable_bytes(
                        std::span<T>(scratch.data(), rr.size())));
          got.wait();
          sent.wait();
          if (rr.size() != 0) {
            reduce(data.data() + rr.begin, scratch.data(), rr.size());
          }
          moved_elems += sr.size();
        }
      }
      if ((halves & kAllgather) != 0) {
        // Step s: forward the completed chunk (rank + 1 - s) right,
        // receive completed chunk (rank - s) from the left straight into
        // place.  Waiting both completions inside the step keeps the
        // send source immutable until it is drained.
        for (int s = 0; s + 1 < g; ++s) {
          const auto sr = chunk_range(n, g, wrap(rank() + 1 - s, g));
          const auto rr = chunk_range(n, g, wrap(rank() - s, g));
          auto sent = transport_.send(
              right, std::as_bytes(data.subspan(sr.begin, sr.size())));
          auto got = transport_.recv(
              left, std::as_writable_bytes(data.subspan(rr.begin, rr.size())));
          got.wait();
          sent.wait();
          moved_elems += sr.size();
        }
      }
    }

    // Logical payload accounting stays in raw-element terms for every
    // codec (the closed-form ledger identities hold codec-on or off);
    // the measured encoded volume lands in wire_bytes_* via WireScope
    // and in the per-codec ledger slots above.
    span.set_arg2("sim_seconds",
                  book_ring_traffic(led, *hooks_.cost, topo_, halves, payload,
                                    moved_elems * sizeof(T)));
  } catch (const net::TransportError&) {
    rethrow_as_collective(op_name);
  }
}

namespace {
void add_f32(float* mine, const float* left, std::size_t n) {
  simd::add_inplace(mine, left, n);
}
void add_f16(Half* mine, const Half* left, std::size_t n) {
  half_accumulate(mine, left, n);
}
}  // namespace

void TransportComm::allreduce_sum(std::span<float> data) {
  ring<float>(data, CollOp::AllReduceF32, "allreduce_f32", add_f32, codec_,
              kBothHalves);
}

void TransportComm::allreduce_sum(std::span<Half> data) {
  ring<Half>(data, CollOp::AllReduceF16, "allreduce_f16", add_f16, codec_,
             kBothHalves);
}

void TransportComm::allreduce_max(std::span<float> data) {
  // Never coded: overflow voting must stay exact.
  ring<float>(data, CollOp::AllReduceMaxF32, "allreduce_max",
              [](float* mine, const float* left, std::size_t n) {
                for (std::size_t j = 0; j < n; ++j) {
                  mine[j] = std::max(mine[j], left[j]);
                }
              },
              WireCodec::None, kBothHalves);
}

void TransportComm::reduce_scatter_sum(std::span<float> data) {
  ring<float>(data, CollOp::ReduceScatterF32, "reduce_scatter_f32", add_f32,
              codec_, kReduceScatter);
}

void TransportComm::reduce_scatter_sum(std::span<Half> data) {
  ring<Half>(data, CollOp::ReduceScatterF16, "reduce_scatter_f16", add_f16,
             codec_, kReduceScatter);
}

void TransportComm::allgather_chunks(std::span<float> data) {
  ring<float>(data, CollOp::AllGatherChunks, "allgather_chunks", add_f32,
              WireCodec::None, kAllgather);
}

void TransportComm::allgather_bytes(std::span<const std::byte> local,
                                    std::span<std::byte> out) {
  const int g = world_size();
  ZIPFLM_CHECK(out.size() == local.size() * static_cast<std::size_t>(g),
               "allgather output must be world_size * block bytes");
  const std::size_t b = local.size();
  obs::SpanScope span("allgather", "payload_bytes", static_cast<double>(b));
  std::memcpy(out.data() + static_cast<std::size_t>(rank()) * b, local.data(),
              b);
  enter_collective(out.data() + static_cast<std::size_t>(rank()) * b, b);
  WireScope wire(*this);
  try {
    neighbor_handshake(CollOp::AllGather, b, -1);
    if (g > 1 && b != 0) {
      const int right = wrap(rank() + 1, g);
      const int left = wrap(rank() - 1, g);
      // Ring forwarding: step s sends block (rank - s) — own block at
      // step 0, then whatever arrived last step — and receives block
      // (rank - s - 1) straight into its slot.
      for (int s = 0; s + 1 < g; ++s) {
        const auto sb = static_cast<std::size_t>(wrap(rank() - s, g));
        const auto rb = static_cast<std::size_t>(wrap(rank() - s - 1, g));
        auto sent = transport_.send(right, out.subspan(sb * b, b));
        auto got = transport_.recv(left, out.subspan(rb * b, b));
        got.wait();
        sent.wait();
      }
    }
  } catch (const net::TransportError&) {
    rethrow_as_collective("allgather");
  }

  auto& led = ledger();
  ++led.allgather_calls;
  led.bytes_sent += static_cast<std::uint64_t>(g - 1) * b;
  led.bytes_received += static_cast<std::uint64_t>(g - 1) * b;
  led.max_collective_scratch_bytes = std::max<std::uint64_t>(
      led.max_collective_scratch_bytes, out.size());
  led.max_allgather_payload_bytes =
      std::max<std::uint64_t>(led.max_allgather_payload_bytes, b);
  const double sim = hooks_.cost->ring_allgather_seconds(topo_, b);
  led.simulated_comm_seconds += sim;
  span.set_arg2("sim_seconds", sim);

  auto& m = CommMetrics::get();
  m.allgather_calls.add(1);
  m.bytes_sent.add(static_cast<std::uint64_t>(g - 1) * b);
  m.bytes_received.add(static_cast<std::uint64_t>(g - 1) * b);
  m.max_scratch_bytes.set_max(static_cast<double>(out.size()));
  m.max_allgather_payload.set_max(static_cast<double>(b));
  m.simulated_seconds.add(sim);
}

void TransportComm::allgatherv_bytes(std::span<const std::byte> local,
                                     std::vector<std::byte>& out,
                                     std::vector<std::size_t>& counts) {
  const int g = world_size();
  obs::SpanScope span("allgatherv", "payload_bytes",
                      static_cast<double>(local.size()));
  enter_collective(nullptr, 0);  // own block poisoned after staging below
  WireScope wire(*this);
  std::uint64_t moved = 0;
  std::size_t max_block = 0;
  try {
    neighbor_handshake(CollOp::AllGatherV, kIgnoreBytes, -1);
    // Phase 1: ring-allgather the per-rank block sizes (the ledger
    // accounts this as 8 bytes per rank on the wire).
    std::vector<std::uint64_t> sizes(static_cast<std::size_t>(g), 0);
    sizes[static_cast<std::size_t>(rank())] = local.size();
    const int right = wrap(rank() + 1, g);
    const int left = wrap(rank() - 1, g);
    for (int s = 0; s + 1 < g; ++s) {
      const auto sb = static_cast<std::size_t>(wrap(rank() - s, g));
      const auto rb = static_cast<std::size_t>(wrap(rank() - s - 1, g));
      auto sent = transport_.send(
          right, std::as_bytes(std::span<const std::uint64_t>(&sizes[sb], 1)));
      auto got = transport_.recv(
          left, std::as_writable_bytes(std::span<std::uint64_t>(&sizes[rb], 1)));
      got.wait();
      sent.wait();
    }
    counts.resize(static_cast<std::size_t>(g));
    std::vector<std::size_t> offsets(static_cast<std::size_t>(g) + 1, 0);
    for (int r = 0; r < g; ++r) {
      counts[static_cast<std::size_t>(r)] =
          static_cast<std::size_t>(sizes[static_cast<std::size_t>(r)]);
      offsets[static_cast<std::size_t>(r) + 1] =
          offsets[static_cast<std::size_t>(r)] +
          counts[static_cast<std::size_t>(r)];
    }
    out.assign(offsets.back(), std::byte{});
    if (!local.empty()) {
      std::memcpy(out.data() + offsets[static_cast<std::size_t>(rank())],
                  local.data(), local.size());
    }
    if (pending_corrupt_) {
      pending_corrupt_ = false;
      poison(out.data() + offsets[static_cast<std::size_t>(rank())],
             local.size());
    }
    // Phase 2: forward the variably-sized blocks around the ring, each
    // landing straight at its final offset.
    for (int s = 0; s + 1 < g; ++s) {
      const auto sb = static_cast<std::size_t>(wrap(rank() - s, g));
      const auto rb = static_cast<std::size_t>(wrap(rank() - s - 1, g));
      auto sent = transport_.send(
          right, std::span<const std::byte>(out.data() + offsets[sb],
                                            counts[sb]));
      auto got = transport_.recv(
          left, std::span<std::byte>(out.data() + offsets[rb], counts[rb]));
      got.wait();
      sent.wait();
      moved += counts[rb];
      max_block = std::max(max_block, counts[rb]);
    }
  } catch (const net::TransportError&) {
    rethrow_as_collective("allgatherv");
  }

  auto& led = ledger();
  ++led.allgather_calls;
  const std::uint64_t wire_accounted =
      moved + static_cast<std::uint64_t>(g - 1) * sizeof(std::size_t);
  led.bytes_sent += wire_accounted;
  led.bytes_received += wire_accounted;
  led.max_collective_scratch_bytes = std::max<std::uint64_t>(
      led.max_collective_scratch_bytes, out.size());
  led.max_allgather_payload_bytes = std::max<std::uint64_t>(
      led.max_allgather_payload_bytes, local.size());
  const double sim =
      hooks_.cost->ring_allgather_seconds(topo_, sizeof(std::size_t)) +
      static_cast<double>(g - 1) *
          hooks_.cost->ring_step_seconds(topo_, max_block);
  led.simulated_comm_seconds += sim;
  span.set_arg2("sim_seconds", sim);
  span.set_arg3("wire_bytes", static_cast<double>(wire_accounted));

  auto& m = CommMetrics::get();
  m.allgather_calls.add(1);
  m.bytes_sent.add(wire_accounted);
  m.bytes_received.add(wire_accounted);
  m.max_scratch_bytes.set_max(static_cast<double>(out.size()));
  m.max_allgather_payload.set_max(static_cast<double>(local.size()));
  m.simulated_seconds.add(sim);
}

void TransportComm::alltoallv_bytes(std::span<const std::byte> send,
                                    std::span<const std::size_t> send_counts,
                                    std::vector<std::byte>& out,
                                    std::vector<std::size_t>& recv_counts) {
  const int g = world_size();
  ZIPFLM_CHECK(send_counts.size() == static_cast<std::size_t>(g),
               "alltoallv needs one send count per rank");
  std::size_t send_total = 0;
  for (const std::size_t c : send_counts) send_total += c;
  ZIPFLM_CHECK(send_total == send.size(),
               "alltoallv send counts must sum to the payload size");
  obs::SpanScope span("alltoallv", "payload_bytes",
                      static_cast<double>(send.size()));
  // Stage the outgoing concatenation so a Corrupt fault poisons this
  // rank's contribution (the self block included) without touching the
  // caller's buffer — matching the shared-memory engine.
  std::vector<std::byte> staged(send.begin(), send.end());
  std::vector<std::size_t> send_off(static_cast<std::size_t>(g) + 1, 0);
  for (int d = 0; d < g; ++d) {
    send_off[static_cast<std::size_t>(d) + 1] =
        send_off[static_cast<std::size_t>(d)] +
        send_counts[static_cast<std::size_t>(d)];
  }
  enter_collective(staged.data(), staged.size());
  WireScope wire(*this);
  try {
    neighbor_handshake(CollOp::AllToAllV, kIgnoreBytes, -1);
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
      auto sent = transport_.send(
          to, std::as_bytes(std::span<const std::uint64_t>(&mine, 1)));
      transport_.recv_blocking(
          from, std::as_writable_bytes(std::span<std::uint64_t>(&theirs, 1)));
      sent.wait();
      recv_counts[static_cast<std::size_t>(from)] =
          static_cast<std::size_t>(theirs);
    }
    std::vector<std::size_t> offsets(static_cast<std::size_t>(g) + 1, 0);
    for (int s = 0; s < g; ++s) {
      offsets[static_cast<std::size_t>(s) + 1] =
          offsets[static_cast<std::size_t>(s)] +
          recv_counts[static_cast<std::size_t>(s)];
    }
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
      auto sent = transport_.send(
          static_cast<int>(to),
          std::span<const std::byte>(staged.data() + send_off[to],
                                     send_counts[to]));
      auto got = transport_.recv(
          static_cast<int>(from),
          std::span<std::byte>(out.data() + offsets[from], recv_counts[from]));
      got.wait();
      sent.wait();
    }
  } catch (const net::TransportError&) {
    rethrow_as_collective("alltoallv");
  }

  auto& led = ledger();
  ++led.alltoall_calls;
  const std::uint64_t counts_wire =
      static_cast<std::uint64_t>(g - 1) * sizeof(std::size_t);
  std::uint64_t sent_wire = counts_wire;
  std::uint64_t recv_wire = counts_wire;
  for (int p = 0; p < g; ++p) {
    if (p == rank()) continue;
    sent_wire += send_counts[static_cast<std::size_t>(p)];
    recv_wire += recv_counts[static_cast<std::size_t>(p)];
  }
  led.bytes_sent += sent_wire;
  led.bytes_received += recv_wire;
  led.max_collective_scratch_bytes = std::max<std::uint64_t>(
      led.max_collective_scratch_bytes, send.size() + out.size());
  led.max_alltoall_payload_bytes = std::max<std::uint64_t>(
      led.max_alltoall_payload_bytes, send.size());
  double sim =
      hooks_.cost->ring_allgather_seconds(topo_, sizeof(std::size_t));
  for (int s = 1; s < g; ++s) {
    const auto to = static_cast<std::size_t>(wrap(rank() + s, g));
    const auto from = static_cast<std::size_t>(wrap(rank() - s, g));
    sim += hooks_.cost->ring_step_seconds(
        topo_, std::max(send_counts[to], recv_counts[from]));
  }
  led.simulated_comm_seconds += sim;
  span.set_arg2("sim_seconds", sim);
  span.set_arg3("wire_bytes", static_cast<double>(sent_wire));

  auto& m = CommMetrics::get();
  m.alltoall_calls.add(1);
  m.bytes_sent.add(sent_wire);
  m.bytes_received.add(recv_wire);
  m.max_scratch_bytes.set_max(static_cast<double>(send.size() + out.size()));
  m.max_alltoall_payload.set_max(static_cast<double>(send.size()));
  m.simulated_seconds.add(sim);
}

void TransportComm::broadcast_bytes(std::span<std::byte> data, int root) {
  const int g = world_size();
  ZIPFLM_CHECK(root >= 0 && root < g, "broadcast root out of range");
  obs::SpanScope span("broadcast", "payload_bytes",
                      static_cast<double>(data.size()));
  enter_collective(rank() == root ? data.data() : nullptr, data.size());
  WireScope wire(*this);
  try {
    neighbor_handshake(CollOp::Broadcast, data.size(), root);
    if (g > 1 && !data.empty()) {
      // Chain from the root: every rank but the root receives from its
      // left, every rank but the chain tail forwards right — the same
      // pipelined-ring shape the ledger formulas price.
      if (rank() != root) {
        transport_.recv_blocking(wrap(rank() - 1, g), data);
      }
      if (rank() != wrap(root - 1, g)) {
        transport_.send_blocking(wrap(rank() + 1, g), data);
      }
    }
  } catch (const net::TransportError&) {
    rethrow_as_collective("broadcast");
  }

  auto& led = ledger();
  ++led.broadcast_calls;
  auto& m = CommMetrics::get();
  m.broadcast_calls.add(1);
  if (rank() != wrap(root - 1, g)) {
    led.bytes_sent += data.size();
    m.bytes_sent.add(data.size());
  }
  if (rank() != root) {
    led.bytes_received += data.size();
    m.bytes_received.add(data.size());
  }
  led.max_broadcast_payload_bytes =
      std::max<std::uint64_t>(led.max_broadcast_payload_bytes, data.size());
  const double sim = hooks_.cost->broadcast_seconds(topo_, data.size());
  led.simulated_comm_seconds += sim;
  span.set_arg2("sim_seconds", sim);
  m.max_broadcast_payload.set_max(static_cast<double>(data.size()));
  m.simulated_seconds.add(sim);
}

}  // namespace zipflm
