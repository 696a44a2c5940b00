// Sharded serving soak: closed- then open-loop load generator replaying
// Zipf-distributed session popularity against the ShardedServer.
//
// Sessions are drawn rank-wise from a Zipf power law (the same engine
// behind the synthetic corpora), so a handful of head sessions are hot
// — the workload that makes per-shard cache affinity and cold-session
// work stealing earn their keep.  Phase 1 (closed loop) runs N client
// threads back to back; phase 2 (open loop) fires Poisson arrivals at a
// fraction of the measured closed-loop service rate, the arrival
// process that actually exposes p99 cliffs.
//
// Latency percentiles, rejection rate, and batching occupancy all come
// from the serving engine's own counters/histograms (the same ones the
// obs registry mirrors), not from a bench-side stopwatch; per-shard
// queue depth is sampled live from ShardedServer::shard_queue_size.
//
// An SloMonitor (zipflm::obs) rides along, fed ~20Hz snapshots of the
// live metrics registry — the same rolling-window health judgement a
// production collector would run, with its thresholds tied to the
// bench's own gates.  The RESULT line carries its window count, trip
// totals, and end-state summary.
//
// `--check` turns the report into a gate: non-zero exit when p99 blows
// past the knee bound (p99 > max_p99_over_p50 * p50), rejections exceed
// max_reject_rate, or any SLO rule is still tripped when load ends —
// the CI smoke for the serve tier.
//
// Emits one "RESULT {...}" JSON line for harness scraping.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "zipflm/data/zipf.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/slo.hpp"
#include "zipflm/serve/sharded_server.hpp"
#include "zipflm/support/stopwatch.hpp"

#include "bench_common.hpp"

namespace {

using namespace zipflm;

struct Config {
  std::size_t shards = 4;
  std::size_t sessions = 160;
  std::size_t requests = 0;  ///< 0 -> sessions * 6
  std::size_t new_tokens = 8;
  std::size_t clients = 8;
  double zipf_exponent = 1.2;
  double open_seconds = 1.0;
  double open_load = 0.8;  ///< open-loop rate as a fraction of closed rate
  bool check = false;
  double max_p99_over_p50 = 5.0;
  double max_reject_rate = 0.25;
  // Reduced model so the soak measures the serving path, not RHN
  // arithmetic; identical replicas per shard.
  Index hidden = 128;
  Index depth = 2;
};

Config parse(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--shards") cfg.shards = std::strtoull(next(), nullptr, 10);
    else if (arg == "--sessions") cfg.sessions = std::strtoull(next(), nullptr, 10);
    else if (arg == "--requests") cfg.requests = std::strtoull(next(), nullptr, 10);
    else if (arg == "--new-tokens") cfg.new_tokens = std::strtoull(next(), nullptr, 10);
    else if (arg == "--clients") cfg.clients = std::strtoull(next(), nullptr, 10);
    else if (arg == "--zipf") cfg.zipf_exponent = std::strtod(next(), nullptr);
    else if (arg == "--open-seconds") cfg.open_seconds = std::strtod(next(), nullptr);
    else if (arg == "--open-load") cfg.open_load = std::strtod(next(), nullptr);
    else if (arg == "--check") cfg.check = true;
    else if (arg == "--max-p99-over-p50") cfg.max_p99_over_p50 = std::strtod(next(), nullptr);
    else if (arg == "--max-reject-rate") cfg.max_reject_rate = std::strtod(next(), nullptr);
    else if (arg == "--hidden") cfg.hidden = std::atoll(next());
    else if (arg == "--depth") cfg.depth = std::atoll(next());
    else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (cfg.requests == 0) cfg.requests = cfg.sessions * 6;
  return cfg;
}

constexpr Index kMaxContext = 256;
constexpr std::size_t kPromptLen = 4;

/// Client-side session record.  The busy flag gives each session one
/// request in flight at a time from the load generator's side, keeping
/// the replayed history coherent (the server would serialize duplicates
/// anyway; the bench should not measure its own incoherence).  An
/// atomic flag rather than a mutex because the open-loop dispatcher
/// acquires and the collector thread releases.
struct Session {
  std::atomic<bool> busy{false};
  std::vector<Index> history;
  std::uint64_t next_seed = 0;
  std::uint64_t resets = 0;

  bool acquire() { return !busy.exchange(true, std::memory_order_acquire); }
  void release() { busy.store(false, std::memory_order_release); }
};

std::vector<Index> fresh_prompt(std::uint64_t session_id, Index vocab) {
  std::vector<Index> prompt;
  Rng rng(9000 + session_id);
  for (std::size_t i = 0; i < kPromptLen; ++i) {
    prompt.push_back(static_cast<Index>(
        rng.uniform_index(static_cast<std::uint64_t>(vocab))));
  }
  return prompt;
}

serve::Request make_request(std::uint64_t session_id, Session& s,
                            const Config& cfg, Index vocab) {
  if (s.history.size() + cfg.new_tokens >
      static_cast<std::size_t>(kMaxContext)) {
    // Conversation outgrew the window: restart it (a fresh prompt, so
    // the next admit is a cache miss — conversations do end).
    s.history = fresh_prompt(session_id, vocab);
    s.resets += 1;
  }
  serve::Request req;
  req.session_id = session_id;
  req.context = s.history;
  req.new_tokens = cfg.new_tokens;
  req.options.max_context = kMaxContext;
  req.seed = 17000 + session_id * 1000 + s.next_seed++;
  return req;
}

struct LoadStats {
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> rejections{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> open_skipped{0};  ///< arrival hit a busy session
};

/// Peak admission-queue depth per shard, sampled while load runs.
class QueueDepthProbe {
 public:
  QueueDepthProbe(serve::ShardedServer& server)
      : server_(server), max_depth_(server.shard_count(), 0) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        for (std::size_t k = 0; k < server_.shard_count(); ++k) {
          max_depth_[k] = std::max(max_depth_[k], server_.shard_queue_size(k));
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  ~QueueDepthProbe() { stop(); }
  void stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
  }
  const std::vector<std::size_t>& max_depth() const { return max_depth_; }

 private:
  serve::ShardedServer& server_;
  std::vector<std::size_t> max_depth_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Feeds the SloMonitor registry snapshots at ~20Hz while load runs —
/// exactly what a production health poller would do against the live
/// Stats endpoint, minus the wire.
class SloProbe {
 public:
  explicit SloProbe(obs::SloMonitor& monitor) : monitor_(monitor) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        monitor_.observe(obs::MetricsRegistry::global().snapshot());
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }
  ~SloProbe() { stop(); }
  void stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
      // One final window so the end state reflects the full run even
      // when the last 50ms of load fell between samples.
      monitor_.observe(obs::MetricsRegistry::global().snapshot());
    }
  }

 private:
  obs::SloMonitor& monitor_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse(argc, argv);

  bench::print_header(
      "Sharded serving soak, Zipf session popularity",
      "serving engine; paper SII (Zipf) applied to session reuse",
      "closed + open loop over N scheduler shards, work-stealing router");

  CharLmConfig model_cfg;
  model_cfg.embed_dim = 64;
  model_cfg.hidden_dim = cfg.hidden;
  model_cfg.depth = cfg.depth;
  std::vector<std::unique_ptr<CharLm>> replicas;
  std::vector<LmModel*> models;
  for (std::size_t k = 0; k < cfg.shards; ++k) {
    replicas.push_back(std::make_unique<CharLm>(model_cfg));
    models.push_back(replicas.back().get());
  }

  serve::ShardedServeOptions sopts;
  sopts.server.max_batch = 16;
  sopts.server.queue_depth = 64;
  sopts.server.cache_capacity =
      std::max<std::size_t>(16, cfg.sessions / cfg.shards);
  sopts.route_capacity = cfg.sessions * 2;
  serve::ShardedServer server(std::move(models), sopts);
  server.start();

  const ZipfSampler popularity(cfg.sessions, cfg.zipf_exponent);
  std::vector<Session> sessions(cfg.sessions + 1);  // 1-based by rank
  for (std::size_t s = 1; s <= cfg.sessions; ++s) {
    sessions[s].history =
        fresh_prompt(static_cast<std::uint64_t>(s), model_cfg.vocab);
  }

  // SLO health monitor with thresholds tied to the bench gates: the
  // latency knee is the --check bound, the queue bound is the server's
  // own admission depth (a full queue is the rejection regime, not an
  // SLO breach — only exceeding it would be a bug).  trip_after 3 /
  // clear_after 1 keeps one slow 50ms window from flapping CI.
  obs::SloOptions slo_opts;
  slo_opts.scope = sopts.server.metrics_scope;
  slo_opts.thresholds.max_p99_over_p50 = cfg.max_p99_over_p50;
  slo_opts.thresholds.max_reject_rate = cfg.max_reject_rate;
  slo_opts.thresholds.max_queue_depth =
      static_cast<double>(sopts.server.queue_depth);
  slo_opts.trip_after = 3;
  slo_opts.clear_after = 1;
  obs::SloMonitor slo(slo_opts);
  slo.set_alert_hook([](const obs::SloAlert& a) {
    std::fprintf(stderr, "SLO %s: %s %.4f vs %.4f (window %llu)\n",
                 a.tripped ? "TRIP" : "CLEAR", a.rule.c_str(), a.value,
                 a.threshold, static_cast<unsigned long long>(a.window));
  });

  LoadStats stats;
  QueueDepthProbe probe(server);
  SloProbe slo_probe(slo);

  // ---- phase 1: closed loop -----------------------------------------
  std::atomic<std::int64_t> remaining(static_cast<std::int64_t>(cfg.requests));
  Stopwatch closed_watch;
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(31 + c);
        while (remaining.fetch_sub(1) > 0) {
          // Zipf-pick a session; if its previous request is still in
          // flight, re-draw (the popularity distribution is what we
          // replay, not a strict per-session schedule).
          std::size_t sid;
          do {
            sid = static_cast<std::size_t>(popularity.sample(rng));
          } while (!sessions[sid].acquire());
          Session& s = sessions[sid];
          while (true) {
            stats.attempts.fetch_add(1);
            const serve::Admission a = server.submit(
                make_request(sid, s, cfg, model_cfg.vocab));
            if (!a.accepted) {
              stats.rejections.fetch_add(1);
              std::this_thread::sleep_for(std::chrono::duration<double>(
                  a.retry_after_seconds));
              continue;
            }
            const serve::Response r = server.wait(a.request_id);
            if (r.status == serve::ResponseStatus::Ok) s.history = r.tokens;
            stats.completed.fetch_add(1);
            break;
          }
          s.release();
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  const double closed_seconds = closed_watch.seconds();
  const double closed_req_s =
      static_cast<double>(cfg.requests) / closed_seconds;
  const double closed_tok_s = closed_req_s * static_cast<double>(cfg.new_tokens);

  // ---- phase 2: open loop -------------------------------------------
  // Poisson arrivals at a fraction of the measured service rate: the
  // regime where queues stay short if — and only if — there is no
  // latency cliff.
  const double arrival_rate = closed_req_s * cfg.open_load;
  std::uint64_t open_submitted = 0;
  {
    std::mutex collect_mutex;
    std::condition_variable collect_cv;
    std::deque<std::pair<std::uint64_t, std::size_t>> to_collect;
    bool dispatch_done = false;

    std::thread collector([&] {
      std::unique_lock lock(collect_mutex);
      while (true) {
        collect_cv.wait(lock,
                        [&] { return !to_collect.empty() || dispatch_done; });
        if (to_collect.empty() && dispatch_done) return;
        const auto [id, sid] = to_collect.front();
        to_collect.pop_front();
        lock.unlock();
        const serve::Response r = server.wait(id);
        if (r.status == serve::ResponseStatus::Ok) {
          sessions[sid].history = r.tokens;
        }
        sessions[sid].release();  // busy since dispatch
        stats.completed.fetch_add(1);
        lock.lock();
      }
    });

    Rng rng(777);
    Stopwatch open_watch;
    double next_arrival = 0.0;
    while (open_watch.seconds() < cfg.open_seconds) {
      next_arrival += -std::log1p(-rng.uniform()) / arrival_rate;
      while (open_watch.seconds() < next_arrival) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      const auto sid = static_cast<std::size_t>(popularity.sample(rng));
      if (!sessions[sid].acquire()) {
        // Open loop never waits on a busy session: the arrival is
        // simply lost to sampling (recorded, not retried).
        stats.open_skipped.fetch_add(1);
        continue;
      }
      stats.attempts.fetch_add(1);
      const serve::Admission a = server.submit(
          make_request(sid, sessions[sid], cfg, model_cfg.vocab));
      if (!a.accepted) {
        stats.rejections.fetch_add(1);
        sessions[sid].release();
        continue;
      }
      open_submitted += 1;
      {
        std::lock_guard lock(collect_mutex);
        // Session mutex stays held; the collector releases it.
        to_collect.emplace_back(a.request_id, sid);
      }
      collect_cv.notify_one();
    }
    {
      std::lock_guard lock(collect_mutex);
      dispatch_done = true;
    }
    collect_cv.notify_one();
    collector.join();
  }

  server.wait_idle();
  probe.stop();
  slo_probe.stop();
  const serve::ServeCounters c = server.counters();
  server.stop();

  const double p50 = c.request_latency.percentile(0.50);
  const double p95 = c.request_latency.percentile(0.95);
  const double p99 = c.request_latency.percentile(0.99);
  const double reject_rate =
      stats.attempts.load() == 0
          ? 0.0
          : static_cast<double>(stats.rejections.load()) /
                static_cast<double>(stats.attempts.load());
  const double cache_hit_rate =
      c.cache_hits + c.cache_misses == 0
          ? 0.0
          : static_cast<double>(c.cache_hits) /
                static_cast<double>(c.cache_hits + c.cache_misses);

  std::size_t max_queue_depth = 0;
  std::string shard_depths = "[";
  for (std::size_t k = 0; k < cfg.shards; ++k) {
    max_queue_depth = std::max(max_queue_depth, probe.max_depth()[k]);
    if (k > 0) shard_depths += ',';
    shard_depths += std::to_string(probe.max_depth()[k]);
  }
  shard_depths += "]";

  std::printf("shards %zu, sessions %zu (zipf s=%.2f), requests %zu + %llu open\n",
              cfg.shards, cfg.sessions, cfg.zipf_exponent, cfg.requests,
              static_cast<unsigned long long>(open_submitted));
  std::printf("closed-loop rate        : %8s req/s (%s tok/s)\n",
              bench::fmt(closed_req_s).c_str(), bench::fmt(closed_tok_s).c_str());
  std::printf("request latency p50     : %8s ms\n", bench::fmt(p50 * 1e3).c_str());
  std::printf("request latency p95     : %8s ms\n", bench::fmt(p95 * 1e3).c_str());
  std::printf("request latency p99     : %8s ms (%sx p50)\n",
              bench::fmt(p99 * 1e3).c_str(),
              bench::fmt(p50 > 0 ? p99 / p50 : 0.0).c_str());
  std::printf("rejection rate          : %8s %% of %llu attempts\n",
              bench::fmt(reject_rate * 100).c_str(),
              static_cast<unsigned long long>(stats.attempts.load()));
  std::printf("cache hit rate          : %8s %%\n",
              bench::fmt(cache_hit_rate * 100).c_str());
  std::printf("mean batch occupancy    : %8s streams/step\n",
              bench::fmt(c.mean_batch_occupancy()).c_str());
  std::printf("max shard queue depth   : %8zu  per shard %s\n",
              max_queue_depth, shard_depths.c_str());
  std::printf("cold-session steals     : %8llu\n",
              static_cast<unsigned long long>(server.steals()));
  std::printf("done-store evictions    : %8llu\n",
              static_cast<unsigned long long>(c.done_evictions));
  const std::string slo_summary = slo.summary();
  std::printf("SLO monitor             : %llu windows, %s\n",
              static_cast<unsigned long long>(slo.windows()),
              slo_summary.c_str());

  std::printf(
      "RESULT {\"bench\":\"serve_soak\",\"shards\":%zu,\"sessions\":%zu,"
      "\"requests\":%llu,\"new_tokens\":%zu,\"zipf_exponent\":%.2f,"
      "\"closed_req_s\":%.2f,\"closed_tok_s\":%.2f,"
      "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"p99_over_p50\":%.2f,\"reject_rate\":%.4f,\"cache_hit_rate\":%.4f,"
      "\"mean_batch_occupancy\":%.2f,\"max_queue_depth\":%zu,"
      "\"shard_max_queue_depth\":%s,\"steals\":%llu,\"done_evictions\":%llu,"
      "\"slo_windows\":%llu,\"slo_tripped\":%s,"
      "\"slo_trips_latency\":%llu,\"slo_trips_reject\":%llu,"
      "\"slo_trips_queue\":%llu,\"slo_summary\":\"%s\"}\n",
      cfg.shards, cfg.sessions,
      static_cast<unsigned long long>(stats.completed.load()), cfg.new_tokens,
      cfg.zipf_exponent, closed_req_s, closed_tok_s, p50 * 1e3, p95 * 1e3,
      p99 * 1e3, p50 > 0 ? p99 / p50 : 0.0, reject_rate, cache_hit_rate,
      c.mean_batch_occupancy(), max_queue_depth, shard_depths.c_str(),
      static_cast<unsigned long long>(server.steals()),
      static_cast<unsigned long long>(c.done_evictions),
      static_cast<unsigned long long>(slo.windows()),
      slo.any_tripped() ? "true" : "false",
      static_cast<unsigned long long>(slo.trips("latency_tail")),
      static_cast<unsigned long long>(slo.trips("reject_rate")),
      static_cast<unsigned long long>(slo.trips("queue_depth")),
      slo_summary.c_str());

  if (cfg.check) {
    bool ok = true;
    if (p50 > 0 && p99 > cfg.max_p99_over_p50 * p50) {
      std::fprintf(stderr, "CHECK FAILED: p99 %.3fms > %.1fx p50 %.3fms\n",
                   p99 * 1e3, cfg.max_p99_over_p50, p50 * 1e3);
      ok = false;
    }
    if (reject_rate > cfg.max_reject_rate) {
      std::fprintf(stderr, "CHECK FAILED: reject rate %.3f > %.3f\n",
                   reject_rate, cfg.max_reject_rate);
      ok = false;
    }
    if (slo.any_tripped()) {
      std::fprintf(stderr, "CHECK FAILED: SLO still tripped at end: %s\n",
                   slo_summary.c_str());
      ok = false;
    }
    if (!ok) return 1;
    std::printf(
        "CHECK OK: p99 within %.1fx p50, rejections within %.1f%%, "
        "SLO clear after %llu windows\n",
        cfg.max_p99_over_p50, cfg.max_reject_rate * 100,
        static_cast<unsigned long long>(slo.windows()));
  }
  return 0;
}
