// Per-rank accounting of everything a collective did: bytes on the wire,
// scratch memory, call counts, per-collective peak payloads, and
// simulated transfer time under the active cost model.  This ledger is
// the measurement instrument behind the paper's communication-volume
// and memory claims.
//
// The same numbers are mirrored, summed over ranks, into the global
// zipflm::obs::MetricsRegistry under "comm/..." (see thread_comm.cpp),
// so the unified metrics snapshot reports them without the caller
// holding a CommWorld.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace zipflm {

/// Logical-vs-wire volume through the Int8 gradient codec (see
/// comm/wire_codec.hpp), as observed by this rank: logical is what the
/// payload would have occupied uncoded (at its staged element width),
/// wire is the encoded bytes that replaced it.  For a ring collective
/// the bytes this rank sent; for a sharded row push the bytes it
/// received.
struct CodecTraffic {
  std::uint64_t logical_bytes = 0;
  std::uint64_t wire_bytes = 0;

  /// Achieved compression: logical / wire (0 when nothing was coded).
  double ratio() const noexcept {
    return wire_bytes == 0 ? 0.0
                           : static_cast<double>(logical_bytes) /
                                 static_cast<double>(wire_bytes);
  }
};

struct TrafficLedger {
  std::uint64_t bytes_sent = 0;      ///< payload this rank pushed to a peer
  std::uint64_t bytes_received = 0;  ///< payload this rank pulled from a peer
  std::uint64_t allreduce_calls = 0;
  std::uint64_t reduce_scatter_calls = 0;
  std::uint64_t allgather_calls = 0;
  std::uint64_t alltoall_calls = 0;
  std::uint64_t broadcast_calls = 0;
  std::uint64_t barrier_calls = 0;
  /// Largest receive/scratch buffer any single collective required on
  /// this rank (the quantity that OOMs the baseline in Tables III/IV).
  std::uint64_t max_collective_scratch_bytes = 0;
  /// Largest single-call payload per collective family — the knob that
  /// decides chunking/fusion thresholds when optimizing collectives.
  std::uint64_t max_allreduce_payload_bytes = 0;
  std::uint64_t max_reduce_scatter_payload_bytes = 0;
  std::uint64_t max_allgather_payload_bytes = 0;
  std::uint64_t max_alltoall_payload_bytes = 0;
  std::uint64_t max_broadcast_payload_bytes = 0;
  /// Simulated communication seconds under the active CostModel.
  double simulated_comm_seconds = 0.0;
  /// Bytes that actually crossed the transport (framing included) and
  /// wall-clock seconds measured inside collectives — the *measured*
  /// counterparts of bytes_sent/bytes_received/simulated_comm_seconds,
  /// kept separate so modelled and real time are never conflated.
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t wire_bytes_received = 0;
  double real_comm_seconds = 0.0;
  /// Int8 logical-vs-wire volume of the coded gradient hops alone, so
  /// codec benchmarks can separate it from the raw collectives.
  CodecTraffic codec;

  void reset() { *this = TrafficLedger{}; }

  /// One JSON object with every field, keys matching the member names.
  std::string to_json() const;

  TrafficLedger& operator+=(const TrafficLedger& o) {
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    allreduce_calls += o.allreduce_calls;
    reduce_scatter_calls += o.reduce_scatter_calls;
    allgather_calls += o.allgather_calls;
    alltoall_calls += o.alltoall_calls;
    broadcast_calls += o.broadcast_calls;
    barrier_calls += o.barrier_calls;
    if (o.max_collective_scratch_bytes > max_collective_scratch_bytes) {
      max_collective_scratch_bytes = o.max_collective_scratch_bytes;
    }
    if (o.max_allreduce_payload_bytes > max_allreduce_payload_bytes) {
      max_allreduce_payload_bytes = o.max_allreduce_payload_bytes;
    }
    if (o.max_reduce_scatter_payload_bytes >
        max_reduce_scatter_payload_bytes) {
      max_reduce_scatter_payload_bytes = o.max_reduce_scatter_payload_bytes;
    }
    if (o.max_allgather_payload_bytes > max_allgather_payload_bytes) {
      max_allgather_payload_bytes = o.max_allgather_payload_bytes;
    }
    if (o.max_alltoall_payload_bytes > max_alltoall_payload_bytes) {
      max_alltoall_payload_bytes = o.max_alltoall_payload_bytes;
    }
    if (o.max_broadcast_payload_bytes > max_broadcast_payload_bytes) {
      max_broadcast_payload_bytes = o.max_broadcast_payload_bytes;
    }
    simulated_comm_seconds += o.simulated_comm_seconds;
    wire_bytes_sent += o.wire_bytes_sent;
    wire_bytes_received += o.wire_bytes_received;
    real_comm_seconds += o.real_comm_seconds;
    codec.logical_bytes += o.codec.logical_bytes;
    codec.wire_bytes += o.codec.wire_bytes;
    return *this;
  }
};

}  // namespace zipflm
