// Serving-side instrumentation: latency histograms (seconds) and
// throughput counters, snapshotted by Server::counters().
#pragma once

#include <cstdint>

#include "zipflm/obs/metrics.hpp"

namespace zipflm::serve {

/// Plain value type; the Server mutates one instance under its lock and
/// hands out copies, so readers never race the scheduler loop.
struct ServeCounters {
  /// Latency of the batched step that produced each sampled token.
  obs::HistogramSnapshot token_latency;
  /// Submit-to-finish latency per completed request.
  obs::HistogramSnapshot request_latency;
  /// Time each admitted request spent in the admission queue (submit to
  /// scheduler admit) — the backpressure signal queue_depth thresholds.
  obs::HistogramSnapshot queue_latency;

  /// Requests sitting in the admission queue right now (refreshed on
  /// every submit/admit transition).
  std::uint64_t queue_depth = 0;

  std::uint64_t batch_steps = 0;       ///< batched forward steps executed
  std::uint64_t batched_streams = 0;   ///< sum of batch sizes over steps
  std::uint64_t tokens_generated = 0;  ///< tokens sampled
  std::uint64_t context_tokens_primed = 0;  ///< context tokens fed (cache
                                            ///< misses pay these)

  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_rejected = 0;  ///< backpressure (queue full)
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_failed = 0;  ///< resolved FailedShutdown by stop()

  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;

  /// Finished responses evicted from the bounded completed-response
  /// store before any poll()/wait() collected them — the footprint a
  /// fire-and-forget client used to leak, now surfaced instead.
  std::uint64_t done_evictions = 0;

  /// Mean streams advanced per batched step — the batching win.
  double mean_batch_occupancy() const noexcept {
    return batch_steps == 0 ? 0.0
                            : static_cast<double>(batched_streams) /
                                  static_cast<double>(batch_steps);
  }

  /// Fold another instance's counters in — the sharded server's
  /// aggregate view.  Histograms merge observation-exact; queue_depth
  /// sums to "requests queued across all shards right now".
  ServeCounters& operator+=(const ServeCounters& other) {
    token_latency += other.token_latency;
    request_latency += other.request_latency;
    queue_latency += other.queue_latency;
    queue_depth += other.queue_depth;
    batch_steps += other.batch_steps;
    batched_streams += other.batched_streams;
    tokens_generated += other.tokens_generated;
    context_tokens_primed += other.context_tokens_primed;
    requests_admitted += other.requests_admitted;
    requests_rejected += other.requests_rejected;
    requests_completed += other.requests_completed;
    requests_failed += other.requests_failed;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_evictions += other.cache_evictions;
    done_evictions += other.done_evictions;
    return *this;
  }
};

}  // namespace zipflm::serve
