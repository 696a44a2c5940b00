// Server facade: bounded admission queue with explicit backpressure in
// front of the batching scheduler, run on a dedicated scheduler thread.
//
// Protocol: submit() either rejects immediately (queue full — the
// Admission carries a retry hint) or returns a request id; poll() or
// wait() collect the finished Response.  A request's `context` is the
// full client-tracked history of its session; re-submitting a session's
// previous output as the next context lets the session cache skip the
// O(history) replay.
//
// Sessions are serialized: while a session has a stream in flight, a
// second request for the same session id stays in the admission queue
// (other sessions overtake it) until the first finishes — so exactly
// one request ever owns a session's cache entry, and the second resumes
// from the state the first wrote back.
//
// Completed responses live in a bounded store (options.done_capacity):
// a fire-and-forget client that never collects its responses costs at
// most done_capacity retained Responses, not one per request forever.
// An evicted (or already-collected) response resolves as
// ResponseStatus::Expired instead of blocking a late waiter.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "zipflm/nn/generate.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/serve/counters.hpp"
#include "zipflm/serve/scheduler.hpp"
#include "zipflm/serve/session_cache.hpp"
#include "zipflm/support/stopwatch.hpp"

namespace zipflm::serve {

struct ServeOptions {
  Index max_batch = 16;           ///< concurrent streams per step
  std::size_t queue_depth = 64;   ///< admission queue bound
  std::size_t cache_capacity = 64;  ///< sessions kept warm (LRU)
  /// Completed responses retained for poll()/wait(); beyond this the
  /// oldest uncollected response is evicted (surfaced in
  /// ServeCounters::done_evictions) and later resolves as Expired.
  std::size_t done_capacity = 1024;
  /// How long a fresh, non-full batch waits for more arrivals before
  /// stepping — the latency cost paid for occupancy.
  double batch_deadline_seconds = 200e-6;
  /// stop() semantics: drain (finish every queued and in-flight request)
  /// or fail them immediately with ResponseStatus::FailedShutdown.
  bool drain_on_stop = true;
  /// Backpressure retry hint handed out until at least one request has
  /// completed — before that the measured mean latency is meaningless
  /// (zero), and a zero hint tells clients to hammer a full queue.
  double default_retry_seconds = 0.05;
  /// Registry prefix for this instance's "<scope>/..." metrics.  Two
  /// servers in one process (shards, tests) must use distinct scopes or
  /// their counters interleave; the sharded server assigns
  /// "<scope>/s<k>" per shard automatically.
  std::string metrics_scope = "serve";
  /// Optional second prefix that counters and histograms ALSO book
  /// into — the process-wide aggregate across instances.  Gauges
  /// (queue_depth, cache_evictions) stay per-scope: a last-write
  /// aggregate gauge across shards would be meaningless.  Empty = none.
  std::string metrics_aggregate;
};

struct Request {
  std::uint64_t session_id = 0;
  std::vector<Index> context;  ///< full session history, non-empty
  std::size_t new_tokens = 0;  ///< > 0; context + new_tokens must fit
                               ///< in options.max_context
  GenerateOptions options;
  std::uint64_t seed = 0;      ///< per-request sampling stream
};

struct Admission {
  bool accepted = false;
  std::uint64_t request_id = 0;  ///< valid when accepted
  std::size_t queue_depth = 0;   ///< queued requests after this decision
  double retry_after_seconds = 0.0;  ///< backoff hint when rejected
};

/// Terminal state of a request.  Every accepted request reaches exactly
/// one of these; a stopped server never leaves a waiter hanging.
enum class ResponseStatus : std::uint8_t {
  Ok,              ///< generated all requested tokens
  FailedShutdown,  ///< server stopped before the request finished
  Expired,         ///< finished, but the response was evicted from the
                   ///< bounded done store (or already collected once)
};

struct Response {
  std::uint64_t request_id = 0;
  std::uint64_t session_id = 0;
  ResponseStatus status = ResponseStatus::Ok;
  std::vector<Index> tokens;  ///< context + generated continuation
  bool cache_hit = false;     ///< session resumed from cache
  double queue_seconds = 0.0;  ///< submit -> first scheduled
  double total_seconds = 0.0;  ///< submit -> finished
};

class Server {
 public:
  /// `model` outlives the server and must not be used concurrently
  /// elsewhere while the server runs.
  Server(LmModel& model, ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawn the scheduler thread.  submit() before start() is allowed;
  /// queued work runs once started.
  void start();

  /// Shut the scheduler thread down and join it.  With drain_on_stop
  /// (the default) every queued and in-flight request finishes first;
  /// otherwise they complete immediately with FailedShutdown.  Either
  /// way, every accepted request holds a terminal Response when stop()
  /// returns.  Safe to call concurrently and repeatedly: exactly one
  /// caller joins the thread, the rest block until shutdown completes.
  void stop();

  /// Non-blocking admission.  Throws ConfigError on malformed requests
  /// (empty context, zero new_tokens, context + new_tokens exceeding
  /// options.max_context); returns accepted == false under backpressure.
  Admission submit(Request request);

  /// Non-blocking: moves the response out when finished.  A request id
  /// whose response was evicted (or already collected) yields a
  /// Response with status Expired rather than false — false means the
  /// request is still pending (or the id was never issued).
  bool poll(std::uint64_t request_id, Response& out);

  /// Block until `request_id` reaches a terminal state.  Requires a
  /// started or stopping server (or an already-resolved request).  A
  /// stop() in progress still counts: its drain or fail-fast pass
  /// resolves the request, and the waiter returns that.  If the server
  /// stops before the request finishes, returns a FailedShutdown
  /// response instead of hanging forever; an evicted or re-waited
  /// response returns Expired instead of blocking.
  Response wait(std::uint64_t request_id);

  /// Block until no request is queued or in flight, or the server
  /// stops (a stopped server is idle: stop() resolves every request).
  /// Like wait(), admitted while a stop() is in progress.
  void wait_idle();

  ServeCounters counters() const;
  /// Requests sitting in the admission queue right now — the cheap load
  /// signal the sharded router steals against.
  std::size_t queue_size() const;
  const ServeOptions& options() const noexcept { return options_; }

 private:
  struct Pending {
    ScheduledRequest request;
    Stopwatch submitted;  ///< running since submit()
  };
  struct Flight {
    Stopwatch submitted;         ///< running since submit()
    double queue_seconds = 0.0;  ///< fixed when scheduled
  };
  struct Metrics;  ///< per-instance registry references (server.cpp)

  void scheduler_loop();
  /// Drain the admission queue into the scheduler (lock held).  Skips
  /// requests whose session already has a stream in flight — they keep
  /// their queue position relative to each other and admit once the
  /// active stream finishes.
  bool admit_locked();
  /// True when some queued request could be admitted right now
  /// (capacity available and its session idle) — the deadline-wait
  /// predicate, so a queue full of same-session requests does not spin.
  bool admissible_queued_locked() const;
  /// Resolve every queued and in-flight request with FailedShutdown
  /// (lock held).  No-op when nothing is pending.
  void fail_residual_locked();
  /// Record `response` in the bounded done store, evicting the oldest
  /// uncollected response over capacity (lock held).
  void finish_locked(Response response);
  /// Remove a collected id from the eviction order (lock held).
  void erase_done_locked(std::unordered_map<std::uint64_t,
                                            Response>::iterator it);
  /// True for an issued id that is no longer tracked anywhere — its
  /// response was evicted or already collected (lock held).
  bool expired_locked(std::uint64_t request_id) const;

  ServeOptions options_;
  SessionCache cache_;
  BatchScheduler scheduler_;
  std::unique_ptr<Metrics> metrics_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes the scheduler thread
  std::condition_variable done_cv_;  ///< wakes waiters on responses
  std::condition_variable stopped_cv_;  ///< wakes concurrent stop() calls
  std::deque<Pending> queue_;
  std::unordered_map<std::uint64_t, Flight> in_flight_;
  std::unordered_map<std::uint64_t, Response> done_;
  std::list<std::uint64_t> done_order_;  ///< completion order, oldest first
  ServeCounters counters_;
  std::uint64_t next_request_id_ = 1;
  bool stop_requested_ = false;
  bool started_ = false;
  bool stopping_ = false;  ///< a stop() owns the thread handle right now
  std::thread thread_;
};

}  // namespace zipflm::serve
