#include "zipflm/comm/thread_comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "comm_internal.hpp"
#include "zipflm/comm/transport_comm.hpp"
#include "zipflm/net/inproc.hpp"
#include "zipflm/net/socket.hpp"
#include "zipflm/obs/metrics.hpp"
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

void CommWorld::Group::validate_uniform(Op op, std::size_t bytes, int root,
                                        WireCodec codec) const {
  for (const auto& slot : slots) {
    if (slot.op != op) {
      throw CollectiveMismatchError(
          "ranks invoked different collectives in the same step");
    }
    if (bytes != static_cast<std::size_t>(-1) && slot.bytes != bytes) {
      throw CollectiveMismatchError(
          "ranks invoked a collective with mismatched payload sizes");
    }
    if (root >= 0 && slot.root != root) {
      throw CollectiveMismatchError(
          "ranks invoked a rooted collective with different roots");
    }
    if (slot.codec != codec) {
      throw CollectiveMismatchError(
          "ranks invoked a collective with mismatched wire codecs");
    }
  }
}

// ---------------------------------------------------------------------------
// Per-rank communicator handle, bound to one Group.  The world handle
// owns (and lazily creates) its rank's node / leader sub-handles.
// ---------------------------------------------------------------------------

class ThreadRankComm final : public Communicator {
 public:
  /// group_rank: this rank's index within the group's member list;
  /// global_rank: index into the world's ledgers (and FaultPlan ranks).
  ThreadRankComm(CommWorld& world, CommWorld::Group& group, int group_rank,
                 int global_rank)
      : w_(world),
        group_(group),
        rank_(group_rank),
        global_rank_(global_rank) {}

  int rank() const noexcept override { return rank_; }
  int world_size() const noexcept override { return group_.size(); }
  const Topology& topology() const noexcept override { return group_.topo; }
  TrafficLedger& ledger() noexcept override {
    return w_.ledgers_[static_cast<std::size_t>(global_rank_)];
  }

  Communicator* node_comm() noexcept override {
    // Only from the world handle.  Node membership follows the *live*
    // topology: dense world rank, not the (possibly retired-riddled)
    // global numbering.
    if (&group_ != w_.world_group_.get()) return nullptr;
    if (node_ == nullptr) {
      const int node = w_.topo_.node_of(rank_);
      node_ = std::make_unique<ThreadRankComm>(
          w_, *w_.node_groups_[static_cast<std::size_t>(node)],
          rank_ % w_.topo_.gpus_per_node, global_rank_);
    }
    return node_.get();
  }

  Communicator* leader_comm() noexcept override {
    if (&group_ != w_.world_group_.get() || w_.leader_group_ == nullptr) {
      return nullptr;
    }
    if (rank_ % w_.topo_.gpus_per_node != 0) return nullptr;
    if (leaders_ == nullptr) {
      leaders_ = std::make_unique<ThreadRankComm>(
          w_, *w_.leader_group_, w_.topo_.node_of(rank_), global_rank_);
    }
    return leaders_.get();
  }

  void barrier() override {
    obs::SpanScope span("barrier");
    enter_collective(nullptr, 0);
    publish(CommWorld::Op::Barrier, nullptr, nullptr, 0, -1);
    group_.barrier.arrive_and_wait();
    group_.validate_uniform(CommWorld::Op::Barrier, 0, -1, WireCodec::None);
    group_.barrier.arrive_and_wait();
    ++ledger().barrier_calls;
    CommMetrics::get().barrier_calls.add(1);
  }

  void allreduce_sum(std::span<float> data) override {
    // The reducer sees one contiguous ring chunk at a time, so the FP32
    // sum can run on the vector units; per-element order within a chunk
    // is unchanged (acc = mine + left, ascending j).
    ring<float>(data, CommWorld::Op::AllReduceF32, "allreduce_f32", add_f32,
                codec_, kBothHalves);
  }

  void allreduce_sum(std::span<Half> data) override {
    // Accumulate each hop in FP32, store the running partial back to
    // binary16 — the precision behaviour of an FP16-wire allreduce.
    // half_accumulate is the F16C-vectorized (bit-identical) kernel;
    // the scalar loop it replaces dominated the whole dense sync.
    ring<Half>(data, CommWorld::Op::AllReduceF16, "allreduce_f16", add_f16,
               codec_, kBothHalves);
  }

  void allreduce_max(std::span<float> data) override {
    // Never coded: overflow voting must stay exact regardless of the
    // armed gradient codec.
    ring<float>(
        data, CommWorld::Op::AllReduceMaxF32, "allreduce_max",
        [](float* mine, const float* left, std::size_t n) {
          for (std::size_t j = 0; j < n; ++j) {
            mine[j] = std::max(mine[j], left[j]);
          }
        },
        WireCodec::None, kBothHalves);
  }

  void reduce_scatter_sum(std::span<float> data) override {
    ring<float>(data, CommWorld::Op::ReduceScatterF32, "reduce_scatter_f32",
                add_f32, codec_, kReduceScatter);
  }

  void reduce_scatter_sum(std::span<Half> data) override {
    ring<Half>(data, CommWorld::Op::ReduceScatterF16, "reduce_scatter_f16",
               add_f16, codec_, kReduceScatter);
  }

  void allgather_chunks(std::span<float> data) override {
    ring<float>(data, CommWorld::Op::AllGatherChunks, "allgather_chunks",
                add_f32, WireCodec::None, kAllgather);
  }

  void set_wire_codec(WireCodec codec) noexcept override { codec_ = codec; }
  WireCodec wire_codec() const noexcept override { return codec_; }

  void allgather_bytes(std::span<const std::byte> local,
                       std::span<std::byte> out) override {
    const int g = world_size();
    ZIPFLM_CHECK(out.size() == local.size() * static_cast<std::size_t>(g),
                 "allgather output must be world_size * block bytes");
    const std::size_t b = local.size();
    obs::SpanScope span("allgather", "payload_bytes",
                        static_cast<double>(b));
    // Stage own block, publish the output buffer so neighbours can read.
    std::memcpy(out.data() + static_cast<std::size_t>(rank_) * b, local.data(),
                b);
    enter_collective(out.data() + static_cast<std::size_t>(rank_) * b, b);
    publish(CommWorld::Op::AllGather, local.data(), out.data(), b, -1);
    group_.barrier.arrive_and_wait();
    group_.validate_uniform(CommWorld::Op::AllGather, b, -1, WireCodec::None);

    // Every rank staged its own block before publishing, so all source
    // blocks are final the moment the publish barrier clears: copy each
    // straight from its owner (who never writes its own block again)
    // instead of forwarding hop by hop.  The closing rendezvous keeps
    // every output buffer pinned until all readers are done.
    for (int s = 0; s + 1 < g; ++s) {
      const int blk = wrap(rank_ - 1 - s, g);
      const std::byte* owner =
          group_.slots[static_cast<std::size_t>(blk)].dst;
      std::memcpy(out.data() + static_cast<std::size_t>(blk) * b,
                  owner + static_cast<std::size_t>(blk) * b, b);
    }
    group_.barrier.arrive_and_wait();

    auto& led = ledger();
    ++led.allgather_calls;
    led.bytes_sent += static_cast<std::uint64_t>(g - 1) * b;
    led.bytes_received += static_cast<std::uint64_t>(g - 1) * b;
    led.max_collective_scratch_bytes = std::max<std::uint64_t>(
        led.max_collective_scratch_bytes, out.size());
    led.max_allgather_payload_bytes =
        std::max<std::uint64_t>(led.max_allgather_payload_bytes, b);
    const double sim = w_.cost_.ring_allgather_seconds(group_.topo, b);
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

  void allgatherv_bytes(std::span<const std::byte> local,
                        std::vector<std::byte>& out,
                        std::vector<std::size_t>& counts) override {
    const int g = world_size();
    obs::SpanScope span("allgatherv", "payload_bytes",
                        static_cast<double>(local.size()));
    enter_collective(nullptr, 0);  // own block poisoned after staging below
    // Phase 1: exchange block sizes (a small fixed-size allgather; the
    // ledger accounts it as 8 bytes per rank on the wire).
    publish(CommWorld::Op::AllGatherV, local.data(), nullptr, local.size(),
            -1);
    group_.barrier.arrive_and_wait();
    group_.validate_uniform(CommWorld::Op::AllGatherV, kIgnoreBytes, -1,
                            WireCodec::None);
    counts.resize(static_cast<std::size_t>(g));
    std::vector<std::size_t> offsets(static_cast<std::size_t>(g) + 1, 0);
    for (int r = 0; r < g; ++r) {
      counts[static_cast<std::size_t>(r)] =
          group_.slots[static_cast<std::size_t>(r)].bytes;
      offsets[static_cast<std::size_t>(r) + 1] =
          offsets[static_cast<std::size_t>(r)] +
          counts[static_cast<std::size_t>(r)];
    }
    out.assign(offsets.back(), std::byte{});
    if (!local.empty()) {
      std::memcpy(out.data() + offsets[static_cast<std::size_t>(rank_)],
                  local.data(), local.size());
    }
    if (pending_corrupt_) {
      pending_corrupt_ = false;
      poison(out.data() + offsets[static_cast<std::size_t>(rank_)],
             local.size());
    }
    // Phase 2: publish the (resized) output buffer, then copy every
    // block straight from its owner's staged output — final as of the
    // publish barrier, and owners never rewrite their own block — with
    // one closing rendezvous in place of the hop-by-hop forwarding.
    group_.slots[static_cast<std::size_t>(rank_)].dst = out.data();
    group_.barrier.arrive_and_wait();

    std::uint64_t moved = 0;
    std::size_t max_block = 0;
    for (int s = 0; s + 1 < g; ++s) {
      const int blk = wrap(rank_ - 1 - s, g);
      const std::size_t sz = counts[static_cast<std::size_t>(blk)];
      if (sz != 0) {
        std::memcpy(out.data() + offsets[static_cast<std::size_t>(blk)],
                    group_.slots[static_cast<std::size_t>(blk)].dst +
                        offsets[static_cast<std::size_t>(blk)],
                    sz);
      }
      moved += sz;
      max_block = std::max(max_block, sz);
    }
    group_.barrier.arrive_and_wait();

    auto& led = ledger();
    ++led.allgather_calls;
    const std::uint64_t wire =
        moved + static_cast<std::uint64_t>(g - 1) * sizeof(std::size_t);
    led.bytes_sent += wire;
    led.bytes_received += wire;
    led.max_collective_scratch_bytes = std::max<std::uint64_t>(
        led.max_collective_scratch_bytes, out.size());
    led.max_allgather_payload_bytes = std::max<std::uint64_t>(
        led.max_allgather_payload_bytes, local.size());
    const double sim =
        w_.cost_.ring_allgather_seconds(group_.topo, sizeof(std::size_t)) +
        static_cast<double>(g - 1) *
            w_.cost_.ring_step_seconds(group_.topo, max_block);
    led.simulated_comm_seconds += sim;
    span.set_arg2("sim_seconds", sim);

    auto& m = CommMetrics::get();
    m.allgather_calls.add(1);
    m.bytes_sent.add(wire);
    m.bytes_received.add(wire);
    m.max_scratch_bytes.set_max(static_cast<double>(out.size()));
    m.max_allgather_payload.set_max(static_cast<double>(local.size()));
    m.simulated_seconds.add(sim);
  }

  void alltoallv_bytes(std::span<const std::byte> send,
                       std::span<const std::size_t> send_counts,
                       std::vector<std::byte>& out,
                       std::vector<std::size_t>& recv_counts) override {
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
    // rank's contribution (the self block included) without touching
    // the caller's buffer.
    std::vector<std::byte> staged(send.begin(), send.end());
    enter_collective(staged.data(), staged.size());
    // One slot carries both publications: the staged payload (src) and
    // the per-destination byte counts (dst) — peers read both after the
    // barrier, so a single rendezvous replaces the size allgather the
    // transport engine runs hop by hop.
    publish(CommWorld::Op::AllToAllV, staged.data(),
            reinterpret_cast<std::byte*>(
                const_cast<std::size_t*>(send_counts.data())),
            staged.size(), -1);
    group_.barrier.arrive_and_wait();
    group_.validate_uniform(CommWorld::Op::AllToAllV, kIgnoreBytes, -1,
                            WireCodec::None);

    recv_counts.resize(static_cast<std::size_t>(g));
    std::vector<std::size_t> offsets(static_cast<std::size_t>(g) + 1, 0);
    for (int s = 0; s < g; ++s) {
      const auto* peer_counts = reinterpret_cast<const std::size_t*>(
          group_.slots[static_cast<std::size_t>(s)].dst);
      recv_counts[static_cast<std::size_t>(s)] =
          peer_counts[static_cast<std::size_t>(rank_)];
      offsets[static_cast<std::size_t>(s) + 1] =
          offsets[static_cast<std::size_t>(s)] +
          recv_counts[static_cast<std::size_t>(s)];
    }
    out.assign(offsets.back(), std::byte{});

    // A peer's block bound for this rank starts, inside that peer's
    // staging, at the sum of the counts it addressed to lower ranks.
    auto peer_block = [&](int s) -> std::pair<const std::byte*, std::size_t> {
      const auto& slot = group_.slots[static_cast<std::size_t>(s)];
      const auto* counts = reinterpret_cast<const std::size_t*>(slot.dst);
      std::size_t off = 0;
      for (int d = 0; d < rank_; ++d) {
        off += counts[static_cast<std::size_t>(d)];
      }
      return {slot.src + off, counts[static_cast<std::size_t>(rank_)]};
    };

    const auto [self_src, self_sz] = peer_block(rank_);
    if (self_sz != 0) {
      std::memcpy(out.data() + offsets[static_cast<std::size_t>(rank_)],
                  self_src, self_sz);
    }
    for (int s = 0; s + 1 < g; ++s) {
      const int blk = wrap(rank_ - 1 - s, g);
      const auto [src, sz] = peer_block(blk);
      if (sz != 0) {
        std::memcpy(out.data() + offsets[static_cast<std::size_t>(blk)], src,
                    sz);
      }
    }
    group_.barrier.arrive_and_wait();

    auto& led = ledger();
    ++led.alltoall_calls;
    const std::uint64_t counts_wire =
        static_cast<std::uint64_t>(g - 1) * sizeof(std::size_t);
    std::uint64_t sent_wire = counts_wire;
    std::uint64_t recv_wire = counts_wire;
    for (int p = 0; p < g; ++p) {
      if (p == rank_) continue;
      sent_wire += send_counts[static_cast<std::size_t>(p)];
      recv_wire += recv_counts[static_cast<std::size_t>(p)];
    }
    led.bytes_sent += sent_wire;
    led.bytes_received += recv_wire;
    led.max_collective_scratch_bytes = std::max<std::uint64_t>(
        led.max_collective_scratch_bytes, send.size() + out.size());
    led.max_alltoall_payload_bytes = std::max<std::uint64_t>(
        led.max_alltoall_payload_bytes, send.size());
    // Pairwise exchange at ring distances 1..g-1: each step is priced
    // by its larger direction, after a small size allgather — the same
    // closed form the transport engine computes from its own counts.
    double sim = w_.cost_.ring_allgather_seconds(group_.topo,
                                                 sizeof(std::size_t));
    for (int s = 1; s < g; ++s) {
      const std::size_t to = static_cast<std::size_t>(wrap(rank_ + s, g));
      const std::size_t from = static_cast<std::size_t>(wrap(rank_ - s, g));
      sim += w_.cost_.ring_step_seconds(
          group_.topo, std::max(send_counts[to], recv_counts[from]));
    }
    led.simulated_comm_seconds += sim;
    span.set_arg2("sim_seconds", sim);

    auto& m = CommMetrics::get();
    m.alltoall_calls.add(1);
    m.bytes_sent.add(sent_wire);
    m.bytes_received.add(recv_wire);
    m.max_scratch_bytes.set_max(static_cast<double>(send.size() + out.size()));
    m.max_alltoall_payload.set_max(static_cast<double>(send.size()));
    m.simulated_seconds.add(sim);
  }

  void broadcast_bytes(std::span<std::byte> data, int root) override {
    const int g = world_size();
    ZIPFLM_CHECK(root >= 0 && root < g, "broadcast root out of range");
    obs::SpanScope span("broadcast", "payload_bytes",
                        static_cast<double>(data.size()));
    enter_collective(rank_ == root ? data.data() : nullptr, data.size());
    publish(CommWorld::Op::Broadcast, data.data(), data.data(), data.size(),
            root);
    group_.barrier.arrive_and_wait();
    group_.validate_uniform(CommWorld::Op::Broadcast, data.size(), root,
                            WireCodec::None);
    group_.barrier.arrive_and_wait();
    if (rank_ != root && !data.empty()) {
      std::memcpy(data.data(),
                  group_.slots[static_cast<std::size_t>(root)].dst,
                  data.size());
    }
    group_.barrier.arrive_and_wait();

    auto& led = ledger();
    ++led.broadcast_calls;
    auto& m = CommMetrics::get();
    m.broadcast_calls.add(1);
    // Pipelined-ring accounting: every rank except the pipeline tail
    // forwards the payload once.
    if (rank_ != wrap(root - 1, g)) {
      led.bytes_sent += data.size();
      m.bytes_sent.add(data.size());
    }
    if (rank_ != root) {
      led.bytes_received += data.size();
      m.bytes_received.add(data.size());
    }
    led.max_broadcast_payload_bytes =
        std::max<std::uint64_t>(led.max_broadcast_payload_bytes, data.size());
    const double sim = w_.cost_.broadcast_seconds(group_.topo, data.size());
    led.simulated_comm_seconds += sim;
    span.set_arg2("sim_seconds", sim);
    m.max_broadcast_payload.set_max(static_cast<double>(data.size()));
    m.simulated_seconds.add(sim);
  }

 private:
  // allgatherv blocks legitimately differ in size across ranks.
  static constexpr std::size_t kIgnoreBytes = static_cast<std::size_t>(-1);

  /// Fault hook at the head of every collective: a Kill fault throws
  /// SimulatedRankDeath (the thread exits without arriving at the
  /// barrier, so survivors only learn of it through the timeout), a
  /// Delay fault sleeps, a Corrupt fault overwrites the rank's own
  /// contribution (`buf`, when the caller has one) with 0xFF bytes —
  /// all-NaN when reinterpreted as FP32/FP16 payloads.
  void enter_collective(std::byte* buf, std::size_t bytes) {
    const CommWorld::FaultAction act = w_.next_fault(global_rank_);
    if (!act.armed) return;
    switch (act.kind) {
      case FaultKind::Kill:
        throw SimulatedRankDeath{global_rank_};
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

  static void poison(std::byte* buf, std::size_t bytes) {
    if (buf != nullptr && bytes != 0) std::memset(buf, 0xFF, bytes);
  }

  void publish(CommWorld::Op op, const std::byte* src, std::byte* dst,
               std::size_t bytes, int root,
               WireCodec codec = WireCodec::None) {
    auto& slot = group_.slots[static_cast<std::size_t>(rank_)];
    slot.op = op;
    slot.src = src;
    slot.dst = dst;
    slot.bytes = bytes;
    slot.root = root;
    slot.codec = codec;
  }

  static void add_f32(float* mine, const float* left, std::size_t n) {
    simd::add_inplace(mine, left, n);
  }
  static void add_f16(Half* mine, const Half* left, std::size_t n) {
    half_accumulate(mine, left, n);
  }

  /// The ring collectives: `halves` selects the reduce-scatter, the
  /// allgather, or both (an allreduce).  Reduce steps hand the reducer
  /// a whole contiguous chunk: reduce(mine, left, count) must combine
  /// left's partial into mine.
  ///
  /// With a wire codec armed the transport ring moves ENCODED chunks.
  /// This engine has no wire, so for the lossless codec the arithmetic
  /// is untouched (decode(encode(x)) == x by contract) and only the
  /// accounting changes; for INT8 each receiver reproduces the
  /// transport operand by round-tripping the left neighbour's published
  /// partial itself (a read-only, deterministic computation), and each
  /// owner replaces its completed chunk with decode(encode(chunk)) —
  /// exactly the bytes a transport rank decodes from the owner's
  /// encoding — before peers copy it.  Both engines therefore stay
  /// bitwise identical under every codec.
  template <typename T, typename Red>
  void ring(std::span<T> data, CommWorld::Op op, const char* op_name,
            Red reduce, WireCodec codec, unsigned halves) {
    const int g = world_size();
    const std::size_t payload = data.size() * sizeof(T);
    obs::SpanScope span(op_name, "payload_bytes",
                        static_cast<double>(payload));
    enter_collective(reinterpret_cast<std::byte*>(data.data()), payload);
    publish(op, reinterpret_cast<const std::byte*>(data.data()),
            reinterpret_cast<std::byte*>(data.data()), payload, -1, codec);
    group_.barrier.arrive_and_wait();
    group_.validate_uniform(op, payload, -1, codec);
    // No second rendezvous before the ring: hop 0 reads only the left
    // neighbour's ORIGINAL chunk (published and stable before the
    // barrier above) and writes a chunk of its own buffer that no
    // neighbour reads at hop 0, so validation flows straight into the
    // reduce-scatter.  Every rendezvous here is a scheduling point for
    // all ranks' threads — on an oversubscribed host each one costs a
    // wake-up convoy, so the collective keeps only the ones the data
    // dependencies require.

    auto& led = ledger();
    const std::size_t n = data.size();
    book_ring_call(led, halves, payload,
                   chunk_range(n, g, 0).size() * sizeof(T));
    if (g <= 1 || data.empty()) return;

    std::uint64_t moved_elems = 0;
    // Wire-codec model of the transport ring's per-rank volume: each
    // hop moves one encoded chunk plus a 4-byte size prefix.
    std::uint64_t wire_model = 0;
    const auto encoded_size = [codec](std::span<const T> chunk) {
      if (codec == WireCodec::Int8) return std::uint64_t{4} + chunk.size();
      thread_local std::vector<std::byte> enc;
      encode_grad_chunk(codec, chunk, enc);
      return static_cast<std::uint64_t>(enc.size());
    };
    if (halves & kReduceScatter) {
      const T* left_data = reinterpret_cast<const T*>(
          group_.slots[static_cast<std::size_t>(wrap(rank_ - 1, g))].dst);
      const bool lossy = codec == WireCodec::Int8;
      thread_local std::vector<std::byte> enc;
      thread_local std::vector<T> dec;

      // Step s: accumulate the left neighbour's partial of chunk
      // (rank - s - 1) into ours.  Under INT8 the operand is the decoded
      // image of the encoded partial — the identical bytes the transport
      // receiver decodes, computed here from the same published chunk.
      for (int s = 0; s + 1 < g; ++s) {
        const auto sent = chunk_range(n, g, wrap(rank_ - s, g));
        // We simultaneously "sent" our partial of chunk (rank - s) to
        // the right: it was completed by the previous step, and the
        // right neighbour only reads it.
        moved_elems += sent.size();
        if (codec != WireCodec::None) {
          wire_model += 4;
          if (sent.size() != 0) {
            wire_model += encoded_size(
                std::span<const T>(data.data() + sent.begin, sent.size()));
          }
        }
        const auto r = chunk_range(n, g, wrap(rank_ - s - 1, g));
        if (r.size() != 0) {
          if (lossy) {
            encode_grad_chunk(
                codec, std::span<const T>(left_data + r.begin, r.size()), enc);
            dec.resize(r.size());
            decode_grad_chunk(codec, std::span<const std::byte>(enc),
                              std::span<T>(dec.data(), r.size()));
            reduce(data.data() + r.begin, dec.data(), r.size());
          } else {
            reduce(data.data() + r.begin, left_data + r.begin, r.size());
          }
        }
        if (s + 2 == g && codec != WireCodec::None) {
          // Our chunk is complete and no peer has read it (the right
          // neighbour reads chunk wrap(rank - s) at step s, never ours),
          // so the owner's encoding can replace it before the barrier
          // below publishes it to the allgather.
          std::uint64_t owned_wire = 0;
          if (r.size() != 0) {
            const std::span<T> owned(data.data() + r.begin, r.size());
            if (lossy) {
              encode_grad_chunk(codec, std::span<const T>(owned), enc);
              decode_grad_chunk(codec, std::span<const std::byte>(enc), owned);
              owned_wire = enc.size();
            } else if (halves & kAllgather) {
              owned_wire = encoded_size(owned);
            }
          }
          group_.slots[static_cast<std::size_t>(rank_)].owned_wire_bytes =
              owned_wire;
        }
        group_.barrier.arrive_and_wait();
      }
    }
    if (halves & kAllgather) {
      // Chunk c lives complete on rank wrap(c - 1): after the
      // reduce-scatter's last rendezvous, or at the publish rendezvous
      // of a standalone allgather.  Rank r only writes chunks of its own
      // buffer that no peer reads (peers read r's buffer solely at chunk
      // wrap(r + 1), its owned chunk, untouched here), so each rank
      // copies straight from every chunk's owner — the same bytes the
      // hop-by-hop ring forwarding delivers, with one closing
      // rendezvous instead of g - 1.
      for (int s = 0; s + 1 < g; ++s) {
        const int c = wrap(rank_ - s, g);
        const auto r = chunk_range(n, g, c);
        const auto& owner = group_.slots[static_cast<std::size_t>(wrap(c - 1, g))];
        if (r.size() != 0) {
          std::memcpy(data.data() + r.begin,
                      reinterpret_cast<const T*>(owner.dst) + r.begin,
                      r.size() * sizeof(T));
        }
        // The forwarded chunk of hop s is wrap(rank + 1 - s).
        const int fwd = wrap(rank_ + 1 - s, g);
        moved_elems += chunk_range(n, g, fwd).size();
        if (codec != WireCodec::None) {
          wire_model +=
              4 + group_.slots[static_cast<std::size_t>(wrap(fwd - 1, g))]
                      .owned_wire_bytes;
        }
      }
      group_.barrier.arrive_and_wait();
    }

    span.set_arg2("sim_seconds",
                  book_ring_traffic(led, w_.cost_, group_.topo, halves,
                                    payload, moved_elems * sizeof(T)));
    if (codec != WireCodec::None) {
      record_codec_traffic(led,
                           codec == WireCodec::Packed ? CodecSlot::Packed
                                                      : CodecSlot::Int8,
                           moved_elems * sizeof(T), wire_model);
    }
  }

  CommWorld& w_;
  CommWorld::Group& group_;
  const int rank_;
  const int global_rank_;
  WireCodec codec_ = WireCodec::None;
  bool pending_corrupt_ = false;
  std::unique_ptr<ThreadRankComm> node_;
  std::unique_ptr<ThreadRankComm> leaders_;
};

// ---------------------------------------------------------------------------
// CommWorld
// ---------------------------------------------------------------------------

CommWorld::CommWorld(int world_size, Options options)
    : world_size_(world_size),
      topo_(options.topo_set ? options.topo : Topology::for_world(world_size)),
      cost_(options.cost),
      backend_(options.backend),
      timeout_seconds_(options.collective_timeout_seconds),
      ledgers_(static_cast<std::size_t>(world_size)),
      fault_cursor_(static_cast<std::size_t>(world_size), 0) {
  ZIPFLM_CHECK(world_size > 0, "world size must be positive");
  ZIPFLM_CHECK(topo_.world_size() == world_size,
               "topology must match world size");
  ZIPFLM_CHECK(timeout_seconds_ >= 0.0,
               "collective timeout must be non-negative");
  live_.resize(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    live_[static_cast<std::size_t>(r)] = r;
  }
  rebuild_groups();
}

CommWorld::~CommWorld() = default;

void CommWorld::rebuild_groups() {
  const int live = static_cast<int>(live_.size());
  ZIPFLM_CHECK(live > 0, "no surviving ranks in the communicator world");
  // After a retirement the survivors no longer fill whole nodes, so the
  // degraded world is re-formed flat (one node spanning all survivors);
  // the pristine world keeps its configured topology.
  if (live != world_size_) topo_ = Topology{1, live};

  world_group_ = std::make_unique<Group>(live, topo_);
  node_groups_.clear();
  node_groups_.reserve(static_cast<std::size_t>(topo_.nodes));
  for (int n = 0; n < topo_.nodes; ++n) {
    node_groups_.push_back(std::make_unique<Group>(
        topo_.gpus_per_node, Topology{1, topo_.gpus_per_node}));
  }
  leader_group_ =
      topo_.nodes > 1
          ? std::make_unique<Group>(topo_.nodes, Topology{topo_.nodes, 1})
          : nullptr;
  set_collective_timeout(timeout_seconds_);
}

void CommWorld::inject_faults(FaultPlan plan) {
  for (const FaultEvent& e : plan.events) {
    ZIPFLM_CHECK(e.rank >= 0 && e.rank < world_size_,
                 "fault plan rank out of range");
    ZIPFLM_CHECK(e.kind != FaultKind::Delay || e.delay_seconds >= 0.0,
                 "fault delay must be non-negative");
  }
  plan_ = std::move(plan);
  plan_consumed_.assign(plan_.events.size(), 0);
}

void CommWorld::set_collective_timeout(double seconds) {
  ZIPFLM_CHECK(seconds >= 0.0, "collective timeout must be non-negative");
  timeout_seconds_ = seconds;
  world_group_->barrier.set_timeout_seconds(seconds);
  for (auto& g : node_groups_) g->barrier.set_timeout_seconds(seconds);
  if (leader_group_ != nullptr) {
    leader_group_->barrier.set_timeout_seconds(seconds);
  }
}

CommWorld::FaultAction CommWorld::next_fault(int global_rank) {
  // Only global_rank's own thread calls this, so the cursor needs no
  // synchronization; the plan itself is immutable during run().
  const std::uint64_t call =
      fault_cursor_[static_cast<std::size_t>(global_rank)]++;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    // Filter on rank FIRST: a consumed flag is then only ever touched
    // by its own event's rank (one byte per flag, no false sharing of
    // bits), so concurrent ranks scanning the plan never race.
    if (e.rank != global_rank || e.at_collective != call ||
        plan_consumed_[i] != 0) {
      continue;
    }
    plan_consumed_[i] = 1;
    return FaultAction{e.kind, e.delay_seconds, true};
  }
  return FaultAction{};
}

void CommWorld::run(const std::function<void(Communicator&)>& fn) {
  if (backend_ != CommBackend::SharedMem) {
    run_transport(fn);
    return;
  }
  world_group_->barrier.reset();
  for (auto& g : node_groups_) g->barrier.reset();
  if (leader_group_ != nullptr) leader_group_->barrier.reset();

  const std::size_t live = live_.size();
  std::vector<std::exception_ptr> errors(live);
  std::vector<int> died;
  std::mutex died_mutex;
  std::vector<std::thread> threads;
  threads.reserve(live);
  for (std::size_t i = 0; i < live; ++i) {
    threads.emplace_back([this, &fn, &errors, &died, &died_mutex, i] {
#if ZIPFLM_TRACE
      // Lanes are keyed by global rank, so a rank's events land in the
      // same Perfetto track across every run() of its lifetime.
      obs::set_thread_lane("rank " + std::to_string(live_[i]), live_[i]);
#endif
      ThreadRankComm comm(*this, *world_group_, static_cast<int>(i),
                          live_[i]);
      try {
        fn(comm);
      } catch (const SimulatedRankDeath& death) {
        // A killed rank dies silently: no abort, no error — the
        // survivors discover the loss through the collective timeout.
        std::scoped_lock lock(died_mutex);
        died.push_back(death.rank);
      } catch (...) {
        errors[i] = std::current_exception();
        world_group_->barrier.abort();
        for (auto& g : node_groups_) g->barrier.abort();
        if (leader_group_ != nullptr) leader_group_->barrier.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  finish_run(died, errors, /*transport_victims=*/false);
}

void CommWorld::run_transport(const std::function<void(Communicator&)>& fn) {
  const std::size_t live = live_.size();
  // A fresh mesh per run: streams poisoned by a failed or timed-out
  // previous run are discarded wholesale, exactly as rebuild_groups()
  // resets the shared-memory barriers.
  std::vector<std::unique_ptr<net::Transport>> endpoints;
  if (backend_ == CommBackend::Socket) {
    endpoints = net::socketpair_mesh(static_cast<int>(live));
  } else {
    net::InProcHub hub(static_cast<int>(live));
    endpoints.reserve(live);
    for (std::size_t i = 0; i < live; ++i) {
      endpoints.push_back(hub.endpoint(static_cast<int>(i)));
    }
  }
  for (auto& ep : endpoints) ep->set_timeout_seconds(timeout_seconds_);

  std::vector<std::exception_ptr> errors(live);
  std::vector<int> died;
  std::mutex died_mutex;
  std::vector<std::thread> threads;
  threads.reserve(live);
  for (std::size_t i = 0; i < live; ++i) {
    threads.emplace_back(
        [this, &fn, &errors, &died, &died_mutex, &endpoints, i] {
#if ZIPFLM_TRACE
          obs::set_thread_lane("rank " + std::to_string(live_[i]), live_[i]);
#endif
          net::Transport& ep = *endpoints[i];
          const int global = live_[i];
          TransportComm::Hooks hooks;
          hooks.ledger = &ledgers_[static_cast<std::size_t>(global)];
          hooks.cost = &cost_;
          hooks.global_rank = global;
          hooks.fault = [this, global] {
            const FaultAction act = next_fault(global);
            return TransportFault{act.kind, act.delay_seconds, act.armed};
          };
          TransportComm comm(ep, topo_, std::move(hooks));
          try {
            fn(comm);
          } catch (const SimulatedRankDeath& death) {
            // A killed rank dies silently; closing its endpoint below
            // is what the survivors observe — as PeerClosedError, i.e.
            // CollectiveTimeoutError, the same signal a dead process
            // gives over a real wire.
            std::scoped_lock lock(died_mutex);
            died.push_back(death.rank);
          } catch (...) {
            errors[i] = std::current_exception();
          }
          // Close on every exit path: success (peers may still drain
          // what we already sent), death, and error (peers unblock
          // instead of waiting out their timeout).
          ep.close();
        });
  }
  for (auto& t : threads) t.join();
  finish_run(died, errors, /*transport_victims=*/true);
}

void CommWorld::finish_run(std::vector<int>& died,
                           std::vector<std::exception_ptr>& errors,
                           bool transport_victims) {
  // Retire killed ranks before rethrowing, so the caller can roll back
  // and immediately re-run over the survivors.
  if (!died.empty()) {
    std::sort(died.begin(), died.end());
    auto& m = CommMetrics::get();
    for (const int r : died) {
      failed_.push_back(r);
      live_.erase(std::remove(live_.begin(), live_.end(), r), live_.end());
      ZIPFLM_TRACE_INSTANT("rank_retired", "rank", static_cast<double>(r));
      m.ranks_retired.add(1);
    }
    rebuild_groups();
    ZIPFLM_TRACE_INSTANT("world_rebuilt", "live_ranks",
                         static_cast<double>(live_.size()));
    m.world_rebuilds.add(1);
  }

  // Prefer the originating error over victims: BarrierAborted always;
  // on a transport backend CollectiveTimeoutError too, since a rank
  // failing for any reason closes its endpoint and every peer then
  // surfaces the loss as a timeout.
  std::exception_ptr any;
  for (const auto& e : errors) {
    if (!e) continue;
    if (!any) any = e;
    try {
      std::rethrow_exception(e);
    } catch (const BarrierAborted&) {
      // victim; keep looking for the root cause
    } catch (const CollectiveTimeoutError&) {
      if (!transport_victims) std::rethrow_exception(e);
      // transport victim; keep looking for the root cause
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (any) std::rethrow_exception(any);
}

const TrafficLedger& CommWorld::ledger(int rank) const {
  ZIPFLM_CHECK(rank >= 0 && rank < world_size_, "ledger rank out of range");
  return ledgers_[static_cast<std::size_t>(rank)];
}

TrafficLedger CommWorld::total_ledger() const {
  TrafficLedger total;
  for (const auto& l : ledgers_) total += l;
  return total;
}

double CommWorld::max_simulated_comm_seconds() const {
  double mx = 0.0;
  for (const auto& l : ledgers_) {
    mx = std::max(mx, l.simulated_comm_seconds);
  }
  return mx;
}

void CommWorld::reset_ledgers() {
  for (auto& l : ledgers_) l.reset();
}

}  // namespace zipflm
