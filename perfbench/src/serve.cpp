// serve_zipf: ShardedServer behind a SocketFrontend on a socketpair
// mesh, driven by a one-thread load generator speaking the public wire
// codec over two client endpoints.
//
// Phase A is a closed loop holding kOutstanding requests in flight (at
// most one per session); it measures batching capacity.  Phase B is an
// open loop of Poisson arrivals at the fixed kOpenLoopRate; it measures
// queueing latency, timed from each arrival's scheduled send time, so a
// stall also charges the arrivals it delays.
//
// The generator cannot use ServeClient: it has no timed receive, so it
// would stamp responses late.  It drives Transport::send/recv/progress
// itself and sends on schedule whatever the backlog.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "probe_model.hpp"
#include "zipflm/data/zipf.hpp"
#include "zipflm/net/socket.hpp"
#include "zipflm/nn/generate.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/serve/sharded_server.hpp"
#include "zipflm/serve/socket_frontend.hpp"
#include "zipflm/serve/wire.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/support/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace zipflm;

constexpr std::size_t kShards = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kSessions = 160;
constexpr double kZipfExponent = 1.2;
constexpr std::size_t kNewTokens = 8;
constexpr Index kMaxContext = 256;
constexpr std::size_t kPromptTokens = 4;
constexpr std::size_t kOutstanding = 64;
/// Phase B's offered load, requests/s: about a tenth of phase A's rate
/// on the 4-core reference host.  At 8000 req/s a host
/// stall of ~20 ms already holds all 160 sessions busy, and the tail
/// tracks host noise rather than the server.  Fixed, never derived from
/// a measured rate, so every commit is offered the same load.
constexpr double kOpenLoopRate = 3000.0;
/// Share of a pass spent in phase A; phase B gets the rest.  Phase A's
/// rate drifts with the host over seconds, so it gets the larger share;
/// phase B's latencies are steady over fewer windows.
constexpr double kClosedShare = 0.6;
/// The phases are cut into windows of about these lengths and report
/// the median window, so one burst of interference on the host moves
/// one window, not the result.  A phase B window holds ~1500 arrivals,
/// so its tail quantile (p95) has ~75 samples beyond it.
constexpr double kClosedWindowSeconds = 0.25;
constexpr double kOpenWindowSeconds = 0.5;
constexpr double kWarmupSeconds = 1.0;
/// The generator sleeps this long after a sweep that received nothing.
/// Yielding instead kept it runnable beside the two shards and the
/// frontend (which spins), and one run in four then read a p95 1.5-2.5x
/// the others.  Sleeping adds ~0.1 ms to every latency (the response is
/// seen up to one sleep late) and kept the p95 within 5% across runs.
constexpr double kIdleSleepSeconds = 20e-6;
constexpr double kDrainTimeoutSeconds = 10.0;
/// Every kSampleEvery-th response is regenerated offline (at most
/// kMaxSamples per run).
constexpr std::uint64_t kSampleEvery = 97;
constexpr std::size_t kMaxSamples = 48;

/// The soak's reduced CharLm: the workload measures the serving path,
/// not RHN arithmetic.  Every replica gets the same weights.
CharLmConfig serve_model_config() {
  CharLmConfig cfg;
  cfg.embed_dim = 64;
  cfg.hidden_dim = 128;
  cfg.depth = 2;
  return cfg;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  const std::uint64_t words[3] = {a, b, c};
  return fnv1a(words, sizeof(words));
}

/// Server, frontend thread and the socket mesh joining them to the
/// client endpoints (mesh ranks 1..kClients).
struct ServeStack {
  std::vector<std::unique_ptr<LmModel>> replicas;
  std::unique_ptr<serve::ShardedServer> server;
  std::vector<std::unique_ptr<net::Transport>> mesh;
  std::unique_ptr<serve::SocketFrontend> frontend;
  std::exception_ptr frontend_error;
  bool clients_open = true;
  std::thread frontend_thread;

  ServeStack() = default;
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;
  ~ServeStack() { shutdown(); }

  /// Say Bye on any client endpoint still open, then join the frontend
  /// and drain the server.
  void shutdown() {
    if (!frontend_thread.joinable()) return;
    if (clients_open) {
      for (std::size_t r = 1; r < mesh.size(); ++r) {
        try {
          serve::wire::send_frame(*mesh[r], 0, serve::wire::encode_bye());
        } catch (const net::TransportError&) {
          // The frontend already failed; closing below still frees it.
        }
        mesh[r]->close();
      }
      clients_open = false;
    }
    frontend_thread.join();
    server->stop();
  }
};

std::unique_ptr<ServeStack> build_serve_stack(bool probe) {
  auto stack = std::make_unique<ServeStack>();
  std::vector<LmModel*> models;
  for (std::size_t k = 0; k < kShards; ++k) {
    auto model = std::make_unique<CharLm>(serve_model_config());
    if (probe) {
      stack->replicas.push_back(std::make_unique<ProbeModel>(std::move(model)));
    } else {
      stack->replicas.push_back(std::move(model));
    }
    models.push_back(stack->replicas.back().get());
  }
  serve::ShardedServeOptions opts;
  opts.server.max_batch = 16;
  opts.server.queue_depth = 64;
  opts.server.cache_capacity = kSessions;
  opts.route_capacity = kSessions * 2;
  stack->server = std::make_unique<serve::ShardedServer>(models, opts);
  stack->server->start();
  stack->mesh = net::socketpair_mesh(static_cast<int>(kClients + 1));
  stack->frontend =
      std::make_unique<serve::SocketFrontend>(*stack->mesh[0], *stack->server);
  ServeStack* s = stack.get();
  stack->frontend_thread = std::thread([s] {
    obs::set_thread_lane("serve frontend", 90);
    try {
      s->frontend->run();
    } catch (...) {
      s->frontend_error = std::current_exception();
    }
  });
  return stack;
}

enum class Phase : std::uint8_t { Closed, Open };

struct Session {
  bool busy = false;
  std::vector<Index> history;
  std::uint64_t requests = 0;
  std::uint64_t restarts = 0;
};

/// A request the generator has sent and not yet seen finish.
struct Flight {
  std::size_t session = 0;
  Phase phase = Phase::Closed;
  double scheduled = 0.0;  ///< due time (open loop) or send time
  double sent = 0.0;
  std::uint64_t seed = 0;
};

/// A response kept for offline regeneration.
struct Sample {
  std::vector<Index> context;
  std::uint64_t seed = 0;
  std::vector<Index> tokens;
};

/// What one pass (phase A, drain, phase B, drain) measured.
struct PassStats {
  double closed_start = 0.0;
  double closed_seconds = 0.0;
  std::vector<double> closed_done;  ///< phase A: in-window response times
  double open_start = 0.0;
  double open_seconds = 0.0;
  std::vector<double> due;      ///< phase B: scheduled send time
  std::vector<double> latency;  ///< phase B: scheduled send -> Response
  std::vector<double> queue;    ///< phase B: Response::queue_seconds
  std::vector<double> exec;     ///< phase B: total - queue
  std::vector<double> net;      ///< phase B: client time - total_seconds
  std::vector<double> lag;      ///< phase B: actual send - scheduled send
  std::uint64_t responses = 0;
  serve::ServeCounters closed_counters, closed_end_counters, pass_counters,
      pass_end_counters;
  std::uint64_t wire_bytes = 0;  ///< both client endpoints, both ways
  std::vector<ServeStepRecord> closed_steps;
};

class LoadGenerator {
 public:
  LoadGenerator(ServeStack& stack, std::uint64_t seed)
      : stack_(stack),
        seed_(seed),
        popularity_(kSessions, kZipfExponent),
        rng_(mix(seed, 0x5E55, 0)),
        sessions_(kSessions + 1) {  // 1-based, as ZipfSampler draws
    for (std::size_t c = 1; c <= kClients; ++c) {
      endpoints_.emplace_back().transport = stack.mesh[c].get();
    }
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Phase A for `closed_seconds`, phase B for `open_seconds`, each
  /// followed by a drain.
  PassStats run_pass(double closed_seconds, double open_seconds,
                     std::uint64_t pass) {
    PassStats st;
    pass_ = &st;
    const std::uint64_t bytes_start = wire_bytes();
    st.pass_counters = stack_.server->counters();

    for (auto& r : stack_.replicas) {
      if (auto* p = dynamic_cast<ProbeModel*>(r.get())) p->start_recording();
    }
    st.closed_counters = stack_.server->counters();
    st.closed_start = now_seconds();
    st.closed_seconds = closed_seconds;
    closed_end_ = st.closed_start + closed_seconds;
    while (now_seconds() < closed_end_) {
      while (flights_ < kOutstanding) {
        send_request(pick_session(), Phase::Closed, now_seconds());
      }
      poll_once();
    }
    st.closed_end_counters = stack_.server->counters();
    for (auto& r : stack_.replicas) {
      if (auto* p = dynamic_cast<ProbeModel*>(r.get())) {
        auto steps = p->stop_recording();
        st.closed_steps.insert(st.closed_steps.end(), steps.begin(), steps.end());
      }
    }
    drain();

    Rng arrivals(mix(seed_, pass, 0xA221));
    st.open_start = now_seconds();
    st.open_seconds = open_seconds;
    const double open_end = st.open_start + open_seconds;
    double next = st.open_start;
    while (next < open_end) {
      const double now = now_seconds();
      while (next <= now && next < open_end) {
        due_.push_back(next);
        next += -std::log1p(-arrivals.uniform()) / kOpenLoopRate;
      }
      send_due();
      poll_once();
    }
    drain();

    st.pass_end_counters = stack_.server->counters();
    st.wire_bytes = wire_bytes() - bytes_start;
    pass_ = nullptr;
    return st;
  }

  /// Bye on both endpoints, then close them (failing our posted
  /// receives, so nothing writes into this object afterwards).
  void close() {
    for (Endpoint& ep : endpoints_) push_frame(ep, serve::wire::encode_bye());
    while (std::any_of(endpoints_.begin(), endpoints_.end(),
                       [](const Endpoint& ep) { return !ep.sends.empty(); })) {
      poll_once();
    }
    for (Endpoint& ep : endpoints_) ep.transport->close();
    stack_.clients_open = false;
  }

  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t ok() const noexcept { return ok_; }
  std::uint64_t rejected() const noexcept { return rejected_; }
  std::uint64_t bad() const noexcept { return bad_; }
  std::uint64_t missing() const noexcept { return flights_ + due_.size(); }
  const std::vector<Sample>& samples() const noexcept { return samples_; }

 private:
  struct OutFrame {
    std::uint64_t length = 0;
    std::vector<std::byte> payload;
    net::Completion header;
    net::Completion body;
  };
  struct Endpoint {
    net::Transport* transport = nullptr;
    std::deque<OutFrame> sends;  ///< buffers pinned until flushed
    std::deque<Flight> awaiting_admission;  ///< FIFO per endpoint
    bool reading_body = false;
    std::uint64_t header = 0;
    std::vector<std::byte> body;
    net::Completion recv;
  };

  std::uint64_t wire_bytes() const {
    std::uint64_t total = 0;
    for (const Endpoint& ep : endpoints_) {
      total += ep.transport->stats().wire_bytes_sent +
               ep.transport->stats().wire_bytes_received;
    }
    return total;
  }

  std::vector<Index> fresh_prompt(std::size_t session, std::uint64_t restart) {
    Rng rng(mix(seed_, session, restart));
    std::vector<Index> prompt(kPromptTokens);
    const auto vocab = static_cast<std::uint64_t>(serve_model_config().vocab);
    for (Index& t : prompt) t = static_cast<Index>(rng.uniform_index(vocab));
    return prompt;
  }

  /// A Zipf-popular session with no request in flight.
  std::size_t pick_session() {
    for (int tries = 0; tries < 64; ++tries) {
      const auto s = static_cast<std::size_t>(popularity_.sample(rng_));
      if (!sessions_[s].busy) return s;
    }
    const std::size_t first = 1 + rng_.uniform_index(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) {
      const std::size_t s = 1 + (first - 1 + i) % kSessions;
      if (!sessions_[s].busy) return s;
    }
    throw Error("load generator: every session is busy");
  }

  void send_request(std::size_t id, Phase phase, double scheduled) {
    Session& s = sessions_[id];
    if (s.history.empty() || s.history.size() + kNewTokens >
                                 static_cast<std::size_t>(kMaxContext)) {
      // A new conversation (or one that outgrew the window): a fresh
      // prompt, so its first request is a session-cache miss.
      s.history = fresh_prompt(id, s.restarts++);
    }
    serve::Request req;
    req.session_id = id;
    req.context = s.history;
    req.new_tokens = kNewTokens;
    req.options.max_context = kMaxContext;
    req.seed = mix(seed_, id, 0x1000000 + s.requests++);

    Flight f;
    f.session = id;
    f.phase = phase;
    f.scheduled = scheduled;
    f.seed = req.seed;
    Endpoint& ep = endpoints_[id % endpoints_.size()];
    {
      obs::SpanScope span("net.send_submit", "request",
                          static_cast<double>(sent_));
      push_frame(ep, serve::wire::encode_submit(req));
    }
    f.sent = now_seconds();
    if (phase == Phase::Open && pass_ != nullptr) {
      pass_->lag.push_back(f.sent - scheduled);
    }
    ep.awaiting_admission.push_back(f);
    s.busy = true;
    ++flights_;
    ++sent_;
  }

  void push_frame(Endpoint& ep, std::vector<std::byte> payload) {
    OutFrame& frame = ep.sends.emplace_back();
    frame.length = payload.size();
    frame.payload = std::move(payload);
    // Deque nodes never move: the buffers stay put until reaped.
    frame.header = ep.transport->send(
        0, std::span(reinterpret_cast<const std::byte*>(&frame.length),
                     sizeof(frame.length)));
    frame.body = ep.transport->send(
        0, std::span(frame.payload.data(), frame.payload.size()));
  }

  /// One non-blocking sweep of both endpoints.  A sweep that received
  /// nothing sleeps: the generator must not hold a CPU the shards or the
  /// frontend are waiting for.
  void poll_once() {
    const std::uint64_t frames = frames_;
    for (Endpoint& ep : endpoints_) {
      pump_recv(ep);
      while (!ep.sends.empty() && ep.sends.front().header.done() &&
             ep.sends.front().body.done()) {
        ep.sends.front().header.wait();  // rethrows a failed send
        ep.sends.front().body.wait();
        ep.sends.pop_front();
      }
      ep.transport->progress(0.0);
    }
    if (frames_ == frames) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(kIdleSleepSeconds));
    }
  }

  void pump_recv(Endpoint& ep) {
    while (true) {
      if (!ep.recv.valid()) {
        ep.recv = ep.reading_body
                      ? ep.transport->recv(0, std::span(ep.body.data(),
                                                        ep.body.size()))
                      : ep.transport->recv(
                            0, std::span(reinterpret_cast<std::byte*>(&ep.header),
                                         sizeof(ep.header)));
      }
      if (!ep.recv.done()) return;
      ep.recv.wait();
      ep.recv = net::Completion();
      if (!ep.reading_body) {
        if (ep.header == 0 || ep.header > serve::wire::kMaxFrameBytes) {
          throw net::ProtocolError("serve frame length out of range");
        }
        ep.body.assign(static_cast<std::size_t>(ep.header), std::byte{});
        ep.reading_body = true;
        continue;
      }
      ep.reading_body = false;
      on_frame(ep);
    }
  }

  void on_frame(Endpoint& ep) {
    const double now = now_seconds();
    ++frames_;
    if (serve::wire::frame_type(ep.body) == serve::wire::FrameType::Admission) {
      const serve::Admission a = serve::wire::decode_admission(ep.body);
      if (ep.awaiting_admission.empty()) {
        throw net::ProtocolError("admission without a pending submit");
      }
      Flight f = ep.awaiting_admission.front();
      ep.awaiting_admission.pop_front();
      if (a.accepted) {
        admitted_.emplace(a.request_id, f);
      } else {
        ++rejected_;
        sessions_[f.session].busy = false;
        --flights_;
      }
      return;
    }
    const serve::Response r = serve::wire::decode_response(ep.body);
    obs::SpanScope span("serve.response", "request",
                        static_cast<double>(r.request_id));
    const auto it = admitted_.find(r.request_id);
    if (it == admitted_.end()) {
      throw net::ProtocolError("response for an unknown request id");
    }
    const Flight f = it->second;
    admitted_.erase(it);
    --flights_;
    Session& s = sessions_[f.session];
    s.busy = false;

    const bool echoes =
        r.tokens.size() == s.history.size() + kNewTokens &&
        std::equal(s.history.begin(), s.history.end(), r.tokens.begin());
    if (r.status != serve::ResponseStatus::Ok || !echoes ||
        r.session_id != f.session) {
      ++bad_;
      s.history.clear();  // start over; the check already failed
      return;
    }
    ++ok_;
    if (ok_ % kSampleEvery == 0 && samples_.size() < kMaxSamples) {
      samples_.push_back({s.history, f.seed, r.tokens});
    }
    s.history = r.tokens;
    if (pass_ == nullptr) return;
    pass_->responses += 1;
    if (f.phase == Phase::Closed) {
      if (now <= closed_end_) pass_->closed_done.push_back(now);
      return;
    }
    pass_->due.push_back(f.scheduled);
    pass_->latency.push_back(now - f.scheduled);
    pass_->queue.push_back(r.queue_seconds);
    pass_->exec.push_back(r.total_seconds - r.queue_seconds);
    pass_->net.push_back((now - f.sent) - r.total_seconds);
  }

  /// Send every due arrival a free session can take.  An arrival that
  /// finds all sessions busy waits here, still timed from its due time:
  /// the backlog shows as latency and generator lag, never as a skipped
  /// arrival.
  void send_due() {
    while (!due_.empty() && flights_ < kSessions) {
      send_request(pick_session(), Phase::Open, due_.front());
      due_.pop_front();
    }
  }

  void drain() {
    const double deadline = now_seconds() + kDrainTimeoutSeconds;
    while ((flights_ > 0 || !due_.empty()) && now_seconds() < deadline) {
      send_due();
      poll_once();
    }
  }

  ServeStack& stack_;
  std::uint64_t seed_;
  ZipfSampler popularity_;
  Rng rng_;
  std::vector<Session> sessions_;
  std::vector<Endpoint> endpoints_;
  std::unordered_map<std::uint64_t, Flight> admitted_;
  std::deque<double> due_;  ///< open-loop arrivals waiting for a session
  PassStats* pass_ = nullptr;
  double closed_end_ = 0.0;
  std::uint64_t flights_ = 0;  ///< sent, neither rejected nor answered
  std::uint64_t frames_ = 0;   ///< frames received
  std::uint64_t sent_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t bad_ = 0;
  std::vector<Sample> samples_;
};

/// [start, start + seconds) cut into windows of about `target` seconds.
struct Windows {
  Windows(double start, double seconds, double target)
      : start(start),
        count(std::max<std::size_t>(
            1, static_cast<std::size_t>(seconds / target))),
        length(seconds / static_cast<double>(count)) {}
  std::size_t of(double t) const {
    const auto i = static_cast<std::size_t>(std::max(0.0, t - start) / length);
    return std::min(i, count - 1);
  }
  double start;
  std::size_t count;
  double length;
};

/// Median over phase A windows of generated tokens per second.
double closed_tok_s(const PassStats& st) {
  const Windows w(st.closed_start, st.closed_seconds, kClosedWindowSeconds);
  std::vector<double> tokens(w.count, 0.0);
  for (double t : st.closed_done) tokens[w.of(t)] += kNewTokens;
  for (double& v : tokens) v /= w.length;
  return median(tokens);
}

/// Median over phase B windows of each window's latency quantile `q`
/// (q < 0: the tail quantile the window's sample count supports).
double open_latency(const PassStats& st, double q) {
  const Windows w(st.open_start, st.open_seconds, kOpenWindowSeconds);
  std::vector<std::vector<double>> by_window(w.count);
  for (std::size_t i = 0; i < st.latency.size(); ++i) {
    by_window[w.of(st.due[i])].push_back(st.latency[i]);
  }
  std::vector<double> per_window;
  for (const auto& samples : by_window) {
    per_window.push_back(
        quantile(samples, q < 0 ? tail_quantile(samples.size()) : q));
  }
  return median(per_window);
}

void add_end_to_end(const PassStats& st, double setup_s, Result& result) {
  result.set("tok_s", closed_tok_s(st));
  result.set("p50_ms", 1e3 * open_latency(st, 0.5));
  result.set("tail_ms", 1e3 * open_latency(st, -1.0));
  result.set("setup_s", setup_s);
  result.set("peak_rss_mb", peak_rss_mb());
  const Windows w(st.open_start, st.open_seconds, kOpenWindowSeconds);
  char line[240];
  std::snprintf(line, sizeof(line),
                "phase A %.1f s, %zu responses; phase B %zu latency samples "
                "at %.0f req/s offered; p50_ms and tail_ms are medians over "
                "%zu windows of each window's p50 and p%.1f",
                st.closed_seconds, st.closed_done.size(), st.latency.size(),
                kOpenLoopRate, w.count,
                100.0 * tail_quantile(st.latency.size() / w.count));
  result.note(line);
}

void add_per_layer(const PassStats& st, Result& result) {
  std::vector<double> queue_ms, step_us;
  for (double v : st.queue) queue_ms.push_back(1e3 * v);
  double width = 0.0;
  for (const ServeStepRecord& s : st.closed_steps) {
    step_us.push_back(1e6 * s.seconds);
    width += static_cast<double>(s.width);
  }
  result.set("serve.queue_p50_ms", median(queue_ms));
  result.set("serve.queue_p99_ms", quantile(queue_ms, 0.99));
  result.set("serve.exec_ms", 1e3 * median(st.exec));
  result.set("serve.net_ms", 1e3 * median(st.net));
  const auto steps = st.closed_end_counters.batch_steps -
                     st.closed_counters.batch_steps;
  const auto streams = st.closed_end_counters.batched_streams -
                       st.closed_counters.batched_streams;
  result.set("serve.occupancy",
             steps == 0 ? 0.0
                        : static_cast<double>(streams) /
                              static_cast<double>(steps));
  const auto hits = st.pass_end_counters.cache_hits - st.pass_counters.cache_hits;
  const auto misses = st.pass_end_counters.cache_misses - st.pass_counters.cache_misses;
  result.set("serve.cache_hit_ratio",
             hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses));
  const auto completed =
      st.pass_end_counters.requests_completed - st.pass_counters.requests_completed;
  result.set("serve.primed_per_req",
             completed == 0
                 ? 0.0
                 : static_cast<double>(st.pass_end_counters.context_tokens_primed -
                                       st.pass_counters.context_tokens_primed) /
                       static_cast<double>(completed));
  result.set("nn.serve_step_us", median(step_us));
  result.set("nn.serve_step_width",
             st.closed_steps.empty()
                 ? 0.0
                 : width / static_cast<double>(st.closed_steps.size()));
  result.set("net.bytes_per_req",
             st.responses == 0 ? 0.0
                               : static_cast<double>(st.wire_bytes) /
                                     static_cast<double>(st.responses));
  result.set("loadgen.lag_p99_ms", 1e3 * quantile(st.lag, 0.99));
  for (const char* name :
       {"nn.local_step_ms", "nn.fwd_ms", "nn.bwd_ms", "nn.gflops",
        "core.sync_ms", "core.exchange_ms", "core.optimizer_ms",
        "core.unique_ratio", "comm.bytes_per_step", "comm.calls_per_step",
        "comm.overlap_efficiency"}) {
    result.set(name, 0.0);
  }
  result.note("nn.local_step_ms, nn.fwd/bwd_ms, nn.gflops, core.* and "
              "comm.*_per_step/overlap = 0: serving runs no training step");
}

/// Every response Ok and echoing its context plus kNewTokens (checked
/// as they arrive), none missing, and a sample regenerated offline on an
/// identical replica matching token for token.
void check_serving(const LoadGenerator& gen, const ServeStack& stack,
                   Result& result) {
  result.attempted = gen.sent();
  result.failed = gen.rejected() + gen.bad() + gen.missing();
  char line[200];
  std::snprintf(line, sizeof(line),
                "requests sent %llu, ok %llu, rejected %llu, bad %llu, "
                "missing %llu",
                static_cast<unsigned long long>(gen.sent()),
                static_cast<unsigned long long>(gen.ok()),
                static_cast<unsigned long long>(gen.rejected()),
                static_cast<unsigned long long>(gen.bad()),
                static_cast<unsigned long long>(gen.missing()));
  result.note(line);
  if (stack.frontend_error) {
    try {
      std::rethrow_exception(stack.frontend_error);
    } catch (const std::exception& e) {
      result.fail_check(std::string("socket frontend failed: ") + e.what());
    }
  }
  if (gen.bad() > 0) {
    result.fail_check(std::to_string(gen.bad()) +
                      " responses were not Ok or did not echo their context "
                      "plus " + std::to_string(kNewTokens) + " tokens");
  }
  if (gen.missing() > 0) {
    result.fail_check(std::to_string(gen.missing()) +
                      " requests never got a response");
  }

  CharLm verifier(serve_model_config());
  GenerateOptions options;
  options.max_context = kMaxContext;
  std::size_t mismatched = 0;
  for (const Sample& s : gen.samples()) {
    Rng rng(s.seed);
    if (generate_tokens(verifier, s.context, kNewTokens, options, rng) !=
        s.tokens) {
      ++mismatched;
    }
  }
  std::snprintf(line, sizeof(line),
                "%zu sampled responses regenerated offline, %zu mismatched",
                gen.samples().size(), mismatched);
  result.note(line);
  if (gen.samples().empty()) {
    result.fail_check("no response was sampled for offline regeneration");
  }
  if (mismatched > 0) result.fail_check(line);
}

}  // namespace

Result run_serve(const Args& args) {
  if (args.workload != "serve_zipf") {
    throw ConfigError("unknown serving workload " + args.workload);
  }
  Result result;
  // Each shard runs its replica's kernels on its own thread.  The two
  // shards, the frontend and the generator already fill the 4-core
  // reference host; with a full kernel pool, a batch step that woke pool
  // workers waited on them whenever they were descheduled, and one run
  // in three read p50 and p95 latencies 1.5x and 3-4x the others.
  ThreadPool::set_global_threads(1);
  std::unique_ptr<ServeStack> stack;
  const double setup_s = median_setup_seconds(
      stack, [&] { return build_serve_stack(args.trace); });

  obs::set_thread_lane("loadgen", 80);
  LoadGenerator gen(*stack, args.seed);
  const double pass_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const double closed = kClosedShare * pass_seconds;
  const double open = pass_seconds - closed;
  // Unmeasured closed-loop warm-up: the first second runs at a fraction
  // of the steady rate (cold sessions, allocator and page warm-up).
  gen.run_pass(kWarmupSeconds, 0.0, 0);
  const PassStats measured = gen.run_pass(closed, open, 1);
  add_end_to_end(measured, setup_s, result);

  if (args.trace) {
    obs::trace_clear();
    obs::trace_enable(true);
    const PassStats traced = gen.run_pass(closed, open, 2);
    obs::trace_enable(false);
    add_per_layer(traced, result);
    result.set("obs.trace_overhead_pct",
               100.0 * (closed_tok_s(measured) - closed_tok_s(traced)) /
                   closed_tok_s(measured));
  }
  gen.close();
  stack->shutdown();
  if (args.trace) {
    // After shutdown: every emitting thread has been joined.
    obs::write_chrome_trace_file(args.trace_path);
    ThreadPool::set_global_threads(0);  // calibrate on the default pool
    calibrate(result, args.smoke);
  }
  check_serving(gen, *stack, result);
  return result;
}

}  // namespace perfbench
