// Internals shared by the two collective engines (thread_comm.cpp's
// shared-memory rings and transport_comm.cpp's message-passing rings).
// Both must produce identical chunk schedules and feed the identical
// global metrics — so the schedule math and the cached metric handles
// live here, once.  Not installed: this header is private to src/comm.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "zipflm/comm/communicator.hpp"
#include "zipflm/comm/cost_model.hpp"
#include "zipflm/comm/ledger.hpp"
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
  // Real-transport telemetry (zero under the shared-memory backend):
  // bytes that crossed an actual wire, framing included, and wall-clock
  // seconds spent inside collectives — deliberately separate from
  // simulated_seconds so the gauges distinguish modelled from measured.
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

inline ChunkRange chunk_range(std::size_t n, int g, int c) {
  return Communicator::ring_chunk(n, g, c);
}

inline int wrap(int x, int g) { return ((x % g) + g) % g; }

/// Which halves of the ring a collective runs: the reduce-scatter, the
/// allgather of every rank's chunk, or both (an allreduce).
inline constexpr unsigned kReduceScatter = 1;
inline constexpr unsigned kAllgather = 2;
inline constexpr unsigned kBothHalves = kReduceScatter | kAllgather;

/// Books one ring collective's call and peak payload under its family
/// (allreduce, reduce-scatter, or allgather with the largest chunk as
/// the per-rank block) into the rank's ledger and the global mirror.
inline void book_ring_call(TrafficLedger& led, unsigned halves,
                           std::size_t payload, std::size_t block) {
  auto& m = CommMetrics::get();
  if (halves == kBothHalves) {
    ++led.allreduce_calls;
    led.max_allreduce_payload_bytes =
        std::max<std::uint64_t>(led.max_allreduce_payload_bytes, payload);
    m.allreduce_calls.add(1);
    m.max_allreduce_payload.set_max(static_cast<double>(payload));
  } else if (halves == kReduceScatter) {
    ++led.reduce_scatter_calls;
    led.max_reduce_scatter_payload_bytes = std::max<std::uint64_t>(
        led.max_reduce_scatter_payload_bytes, payload);
    m.reduce_scatter_calls.add(1);
    m.max_reduce_scatter_payload.set_max(static_cast<double>(payload));
  } else {
    ++led.allgather_calls;
    led.max_allgather_payload_bytes =
        std::max<std::uint64_t>(led.max_allgather_payload_bytes, block);
    m.allgather_calls.add(1);
    m.max_allgather_payload.set_max(static_cast<double>(block));
  }
}

/// Books a ring collective's moved payload bytes and simulated seconds;
/// returns the seconds.
inline double book_ring_traffic(TrafficLedger& led, const CostModel& cost,
                                const Topology& topo, unsigned halves,
                                std::size_t payload, std::uint64_t moved) {
  const double sim = halves == kBothHalves
                         ? cost.ring_allreduce_seconds(topo, payload)
                         : cost.ring_reduce_scatter_seconds(topo, payload);
  led.bytes_sent += moved;
  led.bytes_received += moved;
  led.simulated_comm_seconds += sim;
  auto& m = CommMetrics::get();
  m.bytes_sent.add(moved);
  m.bytes_received.add(moved);
  m.simulated_seconds.add(sim);
  return sim;
}

}  // namespace zipflm::comm_internal
