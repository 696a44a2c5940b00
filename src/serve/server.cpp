#include "zipflm/serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/support/error.hpp"

namespace zipflm::serve {

/// Per-instance "<scope>/..." mirror of ServeCounters, updated at the
/// exact sites the legacy counters increment so the unified snapshot
/// and Server::counters() agree.  The registry hands back stable
/// references, so two servers sharing a scope accumulate into the same
/// metrics — that is the point of scopes: shards get "<scope>/s<k>"
/// each, while every instance can additionally double-book counters and
/// histograms into one aggregate prefix for the fleet-wide view.
struct Server::Metrics {
  /// Counter/histogram references for one name prefix.
  struct Set {
    obs::Counter* requests_admitted;
    obs::Counter* requests_rejected;
    obs::Counter* requests_completed;
    obs::Counter* requests_failed;
    obs::Counter* done_evictions;
    obs::Counter* batch_steps;
    obs::Counter* batched_streams;
    obs::Counter* tokens_generated;
    obs::Counter* context_tokens_primed;
    obs::Counter* cache_hits;
    obs::Counter* cache_misses;
    obs::Histogram* queue_seconds;
    obs::Histogram* token_seconds;
    obs::Histogram* request_seconds;

    Set(obs::MetricsRegistry& r, const std::string& prefix)
        : requests_admitted(&r.counter(prefix + "/requests_admitted")),
          requests_rejected(&r.counter(prefix + "/requests_rejected")),
          requests_completed(&r.counter(prefix + "/requests_completed")),
          requests_failed(&r.counter(prefix + "/requests_failed")),
          done_evictions(&r.counter(prefix + "/done_evictions")),
          batch_steps(&r.counter(prefix + "/batch_steps")),
          batched_streams(&r.counter(prefix + "/batched_streams")),
          tokens_generated(&r.counter(prefix + "/tokens_generated")),
          context_tokens_primed(
              &r.counter(prefix + "/context_tokens_primed")),
          cache_hits(&r.counter(prefix + "/cache_hits")),
          cache_misses(&r.counter(prefix + "/cache_misses")),
          queue_seconds(&r.histogram(prefix + "/queue_seconds")),
          token_seconds(&r.histogram(prefix + "/token_seconds")),
          request_seconds(&r.histogram(prefix + "/request_seconds")) {}
  };

  Set scope;
  /// Gauges are last-value semantics; double-booking them into an
  /// aggregate would make shards overwrite each other, so they stay
  /// scope-local.
  obs::Gauge& queue_depth;
  obs::Gauge& cache_evictions;
  std::optional<Set> aggregate;

  explicit Metrics(const ServeOptions& options)
      : scope(obs::MetricsRegistry::global(), options.metrics_scope),
        queue_depth(obs::MetricsRegistry::global().gauge(
            options.metrics_scope + "/queue_depth")),
        cache_evictions(obs::MetricsRegistry::global().gauge(
            options.metrics_scope + "/cache_evictions")) {
    if (!options.metrics_aggregate.empty() &&
        options.metrics_aggregate != options.metrics_scope) {
      aggregate.emplace(obs::MetricsRegistry::global(),
                        options.metrics_aggregate);
    }
  }

  void add(obs::Counter* Set::*member, std::uint64_t delta) {
    (scope.*member)->add(delta);
    if (aggregate) ((*aggregate).*member)->add(delta);
  }
  void record(obs::Histogram* Set::*member, double value) {
    (scope.*member)->record(value);
    if (aggregate) ((*aggregate).*member)->record(value);
  }
};

Server::Server(LmModel& model, ServeOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      scheduler_(model, cache_, options_.max_batch),
      metrics_(std::make_unique<Metrics>(options_)) {
  ZIPFLM_CHECK(options_.queue_depth >= 1, "queue_depth must be at least 1");
  ZIPFLM_CHECK(options_.done_capacity >= 1,
               "done_capacity must be at least 1");
  ZIPFLM_CHECK(options_.batch_deadline_seconds >= 0.0,
               "batch deadline must be non-negative");
  ZIPFLM_CHECK(!options_.metrics_scope.empty(),
               "metrics_scope must be non-empty");
}

Server::~Server() { stop(); }

void Server::start() {
  std::lock_guard lock(mutex_);
  ZIPFLM_CHECK(!started_ && !stopping_, "server already started");
  stop_requested_ = false;
  started_ = true;
  thread_ = std::thread(&Server::scheduler_loop, this);
}

void Server::stop() {
  std::thread worker;
  {
    std::unique_lock lock(mutex_);
    if (stopping_) {
      // Another stop() owns the thread handle; joining the same thread
      // twice is undefined behaviour, so wait for that stop to finish —
      // the postcondition (fully stopped) holds for both callers.
      stopped_cv_.wait(lock, [&] { return !stopping_; });
      return;
    }
    if (!started_) return;
    stopping_ = true;
    // No new work lands once we commit to stopping: flip started_
    // before the lock drops so a concurrent start() throws instead of
    // racing the join below.
    started_ = false;
    stop_requested_ = true;
    worker = std::move(thread_);
  }
  work_cv_.notify_all();
  if (worker.joinable()) worker.join();
  {
    std::lock_guard lock(mutex_);
    // Drain mode leaves nothing behind; fail-fast mode (and requests
    // that slipped in after the scheduler exited) resolve here, so
    // every accepted request holds a terminal Response from now on.
    fail_residual_locked();
    stop_requested_ = false;
    stopping_ = false;
  }
  stopped_cv_.notify_all();
  done_cv_.notify_all();
}

void Server::finish_locked(Response response) {
  const std::uint64_t id = response.request_id;
  done_.insert_or_assign(id, std::move(response));
  done_order_.push_back(id);
  while (done_.size() > options_.done_capacity) {
    // Oldest completion first.  Entries whose id is no longer in done_
    // were collected already; their order node is garbage to skip.
    ZIPFLM_ASSERT(!done_order_.empty(), "done store larger than its order");
    const std::uint64_t victim = done_order_.front();
    done_order_.pop_front();
    const auto it = done_.find(victim);
    if (it == done_.end()) continue;
    done_.erase(it);
    counters_.done_evictions += 1;
    metrics_->add(&Metrics::Set::done_evictions, 1);
  }
}

void Server::erase_done_locked(
    std::unordered_map<std::uint64_t, Response>::iterator it) {
  // O(collected) list walk, but poll()/wait() usually collect in
  // roughly completion order, so the erased node sits near the front.
  const std::uint64_t id = it->first;
  done_.erase(it);
  const auto order = std::find(done_order_.begin(), done_order_.end(), id);
  if (order != done_order_.end()) done_order_.erase(order);
}

bool Server::expired_locked(std::uint64_t request_id) const {
  return request_id != 0 && request_id < next_request_id_ &&
         done_.count(request_id) == 0 &&
         in_flight_.count(request_id) == 0 &&
         std::none_of(queue_.begin(), queue_.end(), [&](const Pending& p) {
           return p.request.request_id == request_id;
         });
}

void Server::fail_residual_locked() {
  for (FinishedRequest& fin : scheduler_.abort_active()) {
    const auto it = in_flight_.find(fin.request_id);
    ZIPFLM_ASSERT(it != in_flight_.end(), "aborted unknown request");
    Response response;
    response.request_id = fin.request_id;
    response.session_id = fin.session_id;
    response.status = ResponseStatus::FailedShutdown;
    response.tokens = std::move(fin.tokens);
    response.cache_hit = fin.cache_hit;
    response.queue_seconds = it->second.queue_seconds;
    response.total_seconds = it->second.submitted.seconds();
    in_flight_.erase(it);
    counters_.requests_failed += 1;
    metrics_->add(&Metrics::Set::requests_failed, 1);
    finish_locked(std::move(response));
  }
  while (!queue_.empty()) {
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    Response response;
    response.request_id = pending.request.request_id;
    response.session_id = pending.request.session_id;
    response.status = ResponseStatus::FailedShutdown;
    response.tokens = std::move(pending.request.context);
    response.queue_seconds = pending.submitted.seconds();
    response.total_seconds = response.queue_seconds;
    counters_.requests_failed += 1;
    metrics_->add(&Metrics::Set::requests_failed, 1);
    finish_locked(std::move(response));
  }
  counters_.queue_depth = 0;
  metrics_->queue_depth.set(0.0);
  done_cv_.notify_all();
}

Admission Server::submit(Request request) {
  ZIPFLM_CHECK(!request.context.empty(), "request context must be non-empty");
  ZIPFLM_CHECK(request.new_tokens > 0, "request must ask for tokens");
  ZIPFLM_CHECK(request.context.size() + request.new_tokens <=
                   static_cast<std::size_t>(request.options.max_context),
               "context + new_tokens must fit in options.max_context");

  std::lock_guard lock(mutex_);
  Admission admission;
  if (queue_.size() >= options_.queue_depth) {
    // Backpressure: reject instead of blocking the caller.  The hint is
    // a rough service time for one queued request — but until the first
    // request completes the measured mean is zero, and a zero hint
    // invites an immediate retry storm, so fall back to the configured
    // default.
    counters_.requests_rejected += 1;
    metrics_->add(&Metrics::Set::requests_rejected, 1);
    ZIPFLM_TRACE_INSTANT("request_rejected", "queue_depth",
                         static_cast<double>(queue_.size()));
    admission.queue_depth = queue_.size();
    admission.retry_after_seconds =
        counters_.request_latency.count() > 0
            ? std::max(options_.batch_deadline_seconds,
                       counters_.request_latency.mean_seconds())
            : options_.default_retry_seconds;
    return admission;
  }

  Pending pending;
  pending.request.request_id = next_request_id_++;
  pending.request.session_id = request.session_id;
  pending.request.context = std::move(request.context);
  pending.request.new_tokens = request.new_tokens;
  pending.request.options = request.options;
  pending.request.seed = request.seed;

  admission.accepted = true;
  admission.request_id = pending.request.request_id;
  queue_.push_back(std::move(pending));
  admission.queue_depth = queue_.size();
  counters_.requests_admitted += 1;
  counters_.queue_depth = queue_.size();
  metrics_->add(&Metrics::Set::requests_admitted, 1);
  metrics_->queue_depth.set(static_cast<double>(queue_.size()));
  work_cv_.notify_one();
  return admission;
}

bool Server::admissible_queued_locked() const {
  if (!scheduler_.has_capacity()) return false;
  return std::any_of(queue_.begin(), queue_.end(), [&](const Pending& p) {
    return !scheduler_.session_active(p.request.session_id);
  });
}

bool Server::admit_locked() {
  bool any = false;
  for (auto it = queue_.begin();
       it != queue_.end() && scheduler_.has_capacity();) {
    if (scheduler_.session_active(it->request.session_id)) {
      // Per-session serialization: this request waits for the in-flight
      // stream of its session; later requests for other sessions may
      // overtake it.  Order within a session is preserved — the skip
      // leaves relative queue positions untouched.
      ++it;
      continue;
    }
    Pending pending = std::move(*it);
    it = queue_.erase(it);
    const std::uint64_t id = pending.request.request_id;
    Flight flight;
    flight.submitted = pending.submitted;
    flight.queue_seconds = pending.submitted.seconds();
    counters_.queue_latency.record(flight.queue_seconds);
    metrics_->record(&Metrics::Set::queue_seconds, flight.queue_seconds);
    const AdmitInfo info = scheduler_.admit(std::move(pending.request));
    counters_.cache_hits += info.cache_hit ? 1 : 0;
    counters_.cache_misses += info.cache_hit ? 0 : 1;
    metrics_->add(&Metrics::Set::cache_hits, info.cache_hit ? 1 : 0);
    metrics_->add(&Metrics::Set::cache_misses, info.cache_hit ? 0 : 1);
    in_flight_.emplace(id, flight);
    any = true;
  }
  if (any) {
    counters_.queue_depth = queue_.size();
    metrics_->queue_depth.set(static_cast<double>(queue_.size()));
  }
  return any;
}

void Server::scheduler_loop() {
#if ZIPFLM_TRACE
  // One lane per instance: every shard of a ShardedServer runs its own
  // scheduler thread, and a lane must have a single live writer.
  static std::atomic<int> instance_seq{0};
  const int instance = instance_seq.fetch_add(1, std::memory_order_relaxed);
  std::string lane = "serve scheduler ";
  lane += std::to_string(instance);
  obs::set_thread_lane(lane, 100 + instance);
#endif
  std::unique_lock lock(mutex_);
  while (true) {
    // Queued requests whose session is mid-flight are not runnable yet;
    // waking for them would spin, so the predicate asks for admissible
    // work specifically (an active batch always qualifies — stepping it
    // is what eventually unblocks the serialized requests).
    work_cv_.wait(lock, [&] {
      return stop_requested_ || scheduler_.active() > 0 ||
             admissible_queued_locked();
    });
    if (stop_requested_ &&
        (!options_.drain_on_stop ||
         (queue_.empty() && scheduler_.active() == 0))) {
      break;  // fail-fast: stop() resolves the leftovers as FailedShutdown
    }

    const bool was_idle = scheduler_.active() == 0;
    const bool admitted = admit_locked();

    // A fresh batch lingers up to the deadline for more arrivals; a
    // batch already in flight never stalls (continuous batching).
    if (was_idle && admitted && scheduler_.has_capacity() &&
        !stop_requested_ && options_.batch_deadline_seconds > 0.0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(options_.batch_deadline_seconds));
      while (!stop_requested_ && scheduler_.has_capacity()) {
        if (!work_cv_.wait_until(lock, deadline, [&] {
              return stop_requested_ || admissible_queued_locked();
            })) {
          break;  // deadline expired
        }
        if (stop_requested_) break;
        admit_locked();
      }
    }
    if (scheduler_.active() == 0) continue;

    lock.unlock();
    StepInfo info = scheduler_.step();
    lock.lock();

    counters_.batch_steps += 1;
    counters_.batched_streams += static_cast<std::uint64_t>(info.batch);
    counters_.tokens_generated += info.sampled;
    counters_.context_tokens_primed += info.context_fed;
    counters_.cache_evictions = cache_.evictions();
    metrics_->add(&Metrics::Set::batch_steps, 1);
    metrics_->add(&Metrics::Set::batched_streams,
                  static_cast<std::uint64_t>(info.batch));
    metrics_->add(&Metrics::Set::tokens_generated, info.sampled);
    metrics_->add(&Metrics::Set::context_tokens_primed, info.context_fed);
    metrics_->cache_evictions.set(static_cast<double>(cache_.evictions()));
    for (std::size_t i = 0; i < info.sampled; ++i) {
      counters_.token_latency.record(info.seconds);
      metrics_->record(&Metrics::Set::token_seconds, info.seconds);
    }
    for (FinishedRequest& fin : info.finished) {
      const auto it = in_flight_.find(fin.request_id);
      ZIPFLM_ASSERT(it != in_flight_.end(), "finished unknown request");
      Response response;
      response.request_id = fin.request_id;
      response.session_id = fin.session_id;
      response.tokens = std::move(fin.tokens);
      response.cache_hit = fin.cache_hit;
      response.queue_seconds = it->second.queue_seconds;
      response.total_seconds = it->second.submitted.seconds();
      in_flight_.erase(it);
      counters_.requests_completed += 1;
      counters_.request_latency.record(response.total_seconds);
      metrics_->add(&Metrics::Set::requests_completed, 1);
      metrics_->record(&Metrics::Set::request_seconds,
                       response.total_seconds);
      finish_locked(std::move(response));
    }
    if (!info.finished.empty()) done_cv_.notify_all();
  }
  done_cv_.notify_all();
}

bool Server::poll(std::uint64_t request_id, Response& out) {
  std::lock_guard lock(mutex_);
  const auto it = done_.find(request_id);
  if (it == done_.end()) {
    if (!expired_locked(request_id)) return false;
    // The response existed but was evicted from the bounded store (or
    // collected already): terminal, not pending — report it as such so
    // a fire-and-forget client's late poll does not look like a hang.
    out = Response{};
    out.request_id = request_id;
    out.status = ResponseStatus::Expired;
    return true;
  }
  out = std::move(it->second);
  erase_done_locked(it);
  return true;
}

Response Server::wait(std::uint64_t request_id) {
  std::unique_lock lock(mutex_);
  ZIPFLM_CHECK(started_ || stopping_ || done_.count(request_id) > 0 ||
                   expired_locked(request_id),
               "wait() needs a started server");
  // While a stop is in progress (started_ already false, stopping_
  // still true) the request can still finish normally, so keep waiting;
  // only a *completed* shutdown wakes a waiter whose request never ran.
  // An evicted response also terminates the wait — otherwise a waiter
  // racing the done-store bound could sleep forever.
  done_cv_.wait(lock, [&] {
    return done_.count(request_id) > 0 || expired_locked(request_id) ||
           (!started_ && !stopping_);
  });
  const auto it = done_.find(request_id);
  if (it == done_.end()) {
    Response response;
    response.request_id = request_id;
    // Distinguish "finished but no longer retained" from "stopped
    // before it ever ran" (submitted after stop() resolved residuals).
    response.status = expired_locked(request_id)
                          ? ResponseStatus::Expired
                          : ResponseStatus::FailedShutdown;
    return response;
  }
  Response response = std::move(it->second);
  erase_done_locked(it);
  return response;
}

void Server::wait_idle() {
  std::unique_lock lock(mutex_);
  ZIPFLM_CHECK(
      started_ || stopping_ || (queue_.empty() && in_flight_.empty()),
      "wait_idle() needs a started server");
  // A completed shutdown counts as idle: stop() resolves every request.
  done_cv_.wait(lock, [&] {
    return (queue_.empty() && in_flight_.empty()) ||
           (!started_ && !stopping_);
  });
}

ServeCounters Server::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

std::size_t Server::queue_size() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

}  // namespace zipflm::serve
