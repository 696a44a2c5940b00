// The cached handles of the global "comm/..." metrics, shared by the
// collective engine (transport_comm.cpp), CommWorld's rank retirement
// and the wire codec.  Not installed: this header is private to
// src/comm.
#pragma once

#include "zipflm/obs/metrics.hpp"

namespace zipflm::comm_internal {

/// Global mirror of the per-rank ledgers, summed over every rank of
/// every CommWorld / ProcessGroup: the "comm/..." section of the
/// unified metrics snapshot.  Looked up once, then updated with relaxed
/// atomics — the collectives themselves never touch the registry lock.
struct CommMetrics {
  obs::Counter& bytes_sent;
  obs::Counter& bytes_received;
  obs::Counter& allreduce_calls;
  obs::Counter& reduce_scatter_calls;
  obs::Counter& allgather_calls;
  obs::Counter& alltoall_calls;
  obs::Counter& broadcast_calls;
  obs::Counter& barrier_calls;
  obs::Gauge& max_scratch_bytes;
  obs::Gauge& max_allreduce_payload;
  obs::Gauge& max_reduce_scatter_payload;
  obs::Gauge& max_allgather_payload;
  obs::Gauge& max_alltoall_payload;
  obs::Gauge& max_broadcast_payload;
  obs::Gauge& simulated_seconds;
  obs::Counter& ranks_retired;
  obs::Counter& world_rebuilds;
  // Measured transport telemetry: bytes that crossed the transport,
  // framing included, and wall-clock seconds spent inside collectives —
  // deliberately separate from simulated_seconds so the gauges
  // distinguish modelled from measured.
  obs::Counter& wire_bytes_sent;
  obs::Counter& wire_bytes_received;
  obs::Gauge& real_seconds;
  obs::Histogram& net_send_wait;
  obs::Histogram& net_recv_wait;
  // Wire-codec telemetry: logical vs encoded volume through any codec
  // (all slots summed) and the achieved compression of the most recent
  // coded payload, logical / wire.
  obs::Counter& codec_logical_bytes;
  obs::Counter& codec_wire_bytes;
  obs::Gauge& compression_ratio;

  static CommMetrics& get() {
    auto& r = obs::MetricsRegistry::global();
    static CommMetrics m{
        r.counter("comm/bytes_sent"),
        r.counter("comm/bytes_received"),
        r.counter("comm/allreduce_calls"),
        r.counter("comm/reduce_scatter_calls"),
        r.counter("comm/allgather_calls"),
        r.counter("comm/alltoall_calls"),
        r.counter("comm/broadcast_calls"),
        r.counter("comm/barrier_calls"),
        r.gauge("comm/max_collective_scratch_bytes"),
        r.gauge("comm/max_allreduce_payload_bytes"),
        r.gauge("comm/max_reduce_scatter_payload_bytes"),
        r.gauge("comm/max_allgather_payload_bytes"),
        r.gauge("comm/max_alltoall_payload_bytes"),
        r.gauge("comm/max_broadcast_payload_bytes"),
        r.gauge("comm/simulated_seconds"),
        r.counter("comm/ranks_retired"),
        r.counter("comm/world_rebuilds"),
        r.counter("comm/wire_bytes_sent"),
        r.counter("comm/wire_bytes_received"),
        r.gauge("comm/real_seconds"),
        r.histogram("comm/net_send_wait_seconds"),
        r.histogram("comm/net_recv_wait_seconds"),
        r.counter("comm/codec_logical_bytes"),
        r.counter("comm/codec_wire_bytes"),
        r.gauge("comm/compression_ratio"),
    };
    return m;
  }
};

}  // namespace zipflm::comm_internal
