// Sharded serving: routing determinism, single-shard bitwise parity
// with the plain Server, cross-shard stop()/drain semantics, the wire
// protocol, socket-frontend echo parity — and regression coverage for
// the three single-server bugs this layer depends on (bounded done
// store, per-instance metrics scopes, per-session serialized
// admission).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "zipflm/net/socket.hpp"
#include "zipflm/nn/generate.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/telemetry.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/serve/serve_client.hpp"
#include "zipflm/serve/server.hpp"
#include "zipflm/serve/sharded_server.hpp"
#include "zipflm/serve/socket_frontend.hpp"
#include "zipflm/serve/wire.hpp"
#include "decoder_fuzz.hpp"
#include "gated_model.hpp"

namespace zipflm::serve {
namespace {

CharLmConfig small_config(std::uint64_t seed = 3) {
  CharLmConfig cfg;
  cfg.vocab = 20;
  cfg.embed_dim = 5;
  cfg.hidden_dim = 7;
  cfg.depth = 2;
  cfg.seed = seed;
  return cfg;
}

Request session_request(std::uint64_t session, std::vector<Index> context,
                        std::size_t new_tokens, std::uint64_t seed) {
  Request r;
  r.session_id = session;
  r.context = std::move(context);
  r.new_tokens = new_tokens;
  r.options.max_context = 64;
  r.seed = seed;
  return r;
}

/// N identical replicas of the small model (same config seed => same
/// weights), plus the raw pointers the ShardedServer wants.
struct Replicas {
  explicit Replicas(std::size_t n, std::uint64_t seed = 3) {
    for (std::size_t i = 0; i < n; ++i) {
      models.push_back(std::make_unique<CharLm>(small_config(seed)));
      raw.push_back(models.back().get());
    }
  }
  std::vector<std::unique_ptr<CharLm>> models;
  std::vector<LmModel*> raw;
};

// ---- regression: the three single-server bugs ----------------------

TEST(ServerRegression, DoneStoreIsBoundedAndSurfacesEvictions) {
  auto model = std::make_unique<CharLm>(small_config());
  ServeOptions opts;
  opts.done_capacity = 4;
  Server server(*model, opts);
  server.start();

  // Fire-and-forget: 12 requests, never collected.  The old server
  // retained every Response forever; now at most done_capacity survive.
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < 12; ++i) {
    const Admission a = server.submit(
        session_request(100 + i, {1, 2, 3}, 4, 50 + i));
    ASSERT_TRUE(a.accepted);
    ids.push_back(a.request_id);
  }
  server.wait_idle();

  const ServeCounters c = server.counters();
  EXPECT_EQ(c.requests_completed, 12u);
  EXPECT_EQ(c.done_evictions, 8u);  // 12 finished - 4 retained

  // The evicted majority resolves as Expired — terminal, not a hang
  // and not "pending" — while the newest done_capacity still deliver.
  std::size_t ok = 0, expired = 0;
  for (const std::uint64_t id : ids) {
    Response r;
    ASSERT_TRUE(server.poll(id, r)) << "request " << id;
    if (r.status == ResponseStatus::Ok) ++ok;
    if (r.status == ResponseStatus::Expired) ++expired;
  }
  EXPECT_EQ(ok, opts.done_capacity);
  EXPECT_EQ(expired, 8u);

  // wait() on an evicted id must return Expired, not block forever.
  EXPECT_EQ(server.wait(ids.front()).status, ResponseStatus::Expired);
  // Never-issued ids still read as pending/unknown, not Expired.
  Response r;
  EXPECT_FALSE(server.poll(9999, r));
  server.stop();
}

TEST(ServerRegression, MetricsScopesIsolateInstancesAndAggregate) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset("scoped_a/");
  reg.reset("scoped_b/");
  reg.reset("scoped_agg/");

  auto model_a = std::make_unique<CharLm>(small_config());
  auto model_b = std::make_unique<CharLm>(small_config());
  ServeOptions opts_a;
  opts_a.metrics_scope = "scoped_a";
  opts_a.metrics_aggregate = "scoped_agg";
  ServeOptions opts_b;
  opts_b.metrics_scope = "scoped_b";
  opts_b.metrics_aggregate = "scoped_agg";
  Server a(*model_a, opts_a);
  Server b(*model_b, opts_b);
  a.start();
  b.start();
  a.wait(a.submit(session_request(1, {1, 2}, 3, 9)).request_id);
  a.wait(a.submit(session_request(2, {1, 2}, 3, 9)).request_id);
  b.wait(b.submit(session_request(1, {1, 2}, 3, 9)).request_id);
  a.stop();
  b.stop();

  // Each instance's counters are its own — the old global singleton
  // interleaved every server in the process into one "serve/" series.
  EXPECT_EQ(reg.counter("scoped_a/requests_completed").value(), 2u);
  EXPECT_EQ(reg.counter("scoped_b/requests_completed").value(), 1u);
  // Counters and histograms also book into the shared aggregate.
  EXPECT_EQ(reg.counter("scoped_agg/requests_completed").value(), 3u);
  EXPECT_EQ(reg.histogram("scoped_agg/request_seconds").count(), 3u);
  // Resetting one scope leaves the other alone.
  reg.reset("scoped_a/");
  EXPECT_EQ(reg.counter("scoped_a/requests_completed").value(), 0u);
  EXPECT_EQ(reg.counter("scoped_b/requests_completed").value(), 1u);
}

TEST(ServerRegression, DuplicateSessionRequestsSerialize) {
  auto model = std::make_unique<CharLm>(small_config());

  // Ground truth for the *second* request: the server replays its
  // context from scratch (the first request's finish makes the cached
  // fingerprint diverge), so its tokens equal batch-1 generation.
  const std::vector<Index> context = {1, 2, 3};
  GenerateOptions opt;
  opt.max_context = 64;
  Rng rng_a(41), rng_b(42);
  const auto expected_a = generate_tokens(*model, context, 8, opt, rng_a);
  const auto expected_b = generate_tokens(*model, context, 8, opt, rng_b);

  Server server(*model, ServeOptions{});
  // Both requests target session 7 and are queued before start(): the
  // old scheduler admitted both at once — two streams racing one cache
  // entry (the bug); now the second admits only after the first
  // finishes, and both come back deterministic.
  const Admission first =
      server.submit(session_request(7, context, 8, 41));
  const Admission second =
      server.submit(session_request(7, context, 8, 42));
  ASSERT_TRUE(first.accepted);
  ASSERT_TRUE(second.accepted);
  server.start();
  const Response ra = server.wait(first.request_id);
  const Response rb = server.wait(second.request_id);
  server.stop();

  EXPECT_EQ(ra.status, ResponseStatus::Ok);
  EXPECT_EQ(rb.status, ResponseStatus::Ok);
  EXPECT_EQ(ra.tokens, expected_a);
  EXPECT_EQ(rb.tokens, expected_b);
  // Serialization kept FIFO across the *other* admissible sessions too:
  // nothing hung, and both requests of session 7 ran one after another.
  const ServeCounters c = server.counters();
  EXPECT_EQ(c.requests_completed, 2u);
}

// ---- sharded routing ------------------------------------------------

TEST(ShardedServerTest, RoutingIsDeterministicAndIdsDecode) {
  Replicas replicas(4);
  ShardedServeOptions opts;
  ShardedServer server(replicas.raw, opts);

  // Hash routing is a pure function of the session id.
  for (std::uint64_t sid = 1; sid <= 64; ++sid) {
    EXPECT_EQ(server.shard_of(sid), server.shard_of(sid));
    EXPECT_LT(server.shard_of(sid), server.shard_count());
  }

  server.start();
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> sids;
  for (std::uint64_t sid = 1; sid <= 16; ++sid) {
    const std::size_t expected_shard = server.shard_of(sid);
    const Admission a =
        server.submit(session_request(sid, {1, 2, 3}, 4, sid));
    ASSERT_TRUE(a.accepted);
    // Global ids self-route: id % shards names the admitting shard,
    // which for an uncontended submit is the session's home shard.
    EXPECT_EQ(a.request_id % server.shard_count(), expected_shard);
    EXPECT_GE(a.request_id, server.shard_count());  // 0 is never issued
    ids.push_back(a.request_id);
    sids.push_back(sid);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Response r = server.wait(ids[i]);
    EXPECT_EQ(r.status, ResponseStatus::Ok);
    EXPECT_EQ(r.request_id, ids[i]);
    EXPECT_EQ(r.session_id, sids[i]);
    // A warm session stays pinned where its cache entry lives.
    EXPECT_EQ(server.shard_of(sids[i]),
              static_cast<std::size_t>(ids[i] % server.shard_count()));
  }
  server.stop();
}

TEST(ShardedServerTest, EachShardSchedulerTracesItsOwnLane) {
#if !ZIPFLM_TRACE
  GTEST_SKIP() << "tracing compiled out (ZIPFLM_TRACE=0)";
#endif
  // A trace lane is a single-writer ring, so the two shards' scheduler
  // threads must each adopt their own.
  Replicas replicas(2);
  ShardedServer server(replicas.raw, ShardedServeOptions{});
  std::set<std::size_t> shards;
  for (std::uint64_t sid = 1; sid <= 8; ++sid) {
    shards.insert(server.shard_of(sid));
  }
  ASSERT_EQ(shards.size(), 2u) << "sessions 1..8 must reach both shards";

  obs::trace_clear();
  obs::trace_enable(true);
  server.start();
  std::vector<std::uint64_t> ids;
  for (std::uint64_t sid = 1; sid <= 8; ++sid) {
    const Admission a =
        server.submit(session_request(sid, {1, 2, 3}, 4, sid));
    ASSERT_TRUE(a.accepted);
    ids.push_back(a.request_id);
  }
  for (const std::uint64_t id : ids) server.wait(id);
  server.stop();
  obs::trace_enable(false);

  std::set<std::string> scheduler_lanes;
  for (const obs::LaneSnapshot& lane : obs::trace_lane_snapshot()) {
    if (lane.label.rfind("serve scheduler", 0) != 0) continue;
    for (const obs::OwnedTraceEvent& ev : lane.events) {
      if (ev.name == "batch_step") scheduler_lanes.insert(lane.label);
    }
  }
  obs::trace_clear();
  EXPECT_EQ(scheduler_lanes.size(), 2u);
}

TEST(ShardedServerTest, SingleShardMatchesPlainServerBitwise) {
  auto reference_model = std::make_unique<CharLm>(small_config());
  Replicas replicas(1);

  constexpr std::size_t kSessions = 5;
  constexpr std::size_t kNewTokens = 9;
  std::vector<std::vector<Index>> contexts;
  for (std::size_t s = 0; s < kSessions; ++s) {
    contexts.push_back({static_cast<Index>(1 + s), 2, 3});
  }

  // Plain PR-1 server.
  Server plain(*reference_model, ServeOptions{});
  plain.start();
  std::vector<std::vector<Index>> plain_tokens;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const Admission a = plain.submit(
        session_request(s + 1, contexts[s], kNewTokens, 300 + s));
    ASSERT_TRUE(a.accepted);
    plain_tokens.push_back(plain.wait(a.request_id).tokens);
  }
  plain.stop();

  // One-shard sharded server, same submissions.
  ShardedServeOptions opts;
  ShardedServer sharded(replicas.raw, opts);
  sharded.start();
  for (std::size_t s = 0; s < kSessions; ++s) {
    const Admission a = sharded.submit(
        session_request(s + 1, contexts[s], kNewTokens, 300 + s));
    ASSERT_TRUE(a.accepted);
    EXPECT_EQ(sharded.wait(a.request_id).tokens, plain_tokens[s])
        << "session " << s + 1;
  }
  sharded.stop();
}

TEST(ShardedServerTest, StopDrainsEveryShard) {
  Replicas replicas(3);
  ShardedServeOptions opts;
  ShardedServer server(replicas.raw, opts);

  // Queue work on every shard before any scheduler runs, then start
  // and immediately stop: drain semantics must finish all of it Ok.
  std::vector<std::uint64_t> ids;
  for (std::uint64_t sid = 1; sid <= 24; ++sid) {
    const Admission a =
        server.submit(session_request(sid, {1, 2, 3}, 6, sid));
    ASSERT_TRUE(a.accepted);
    ids.push_back(a.request_id);
  }
  server.start();
  server.stop();
  for (const std::uint64_t id : ids) {
    Response r;
    ASSERT_TRUE(server.poll(id, r)) << "request " << id << " unresolved";
    EXPECT_EQ(r.status, ResponseStatus::Ok);
    EXPECT_EQ(r.tokens.size(), 3u + 6u);
  }
  const ServeCounters total = server.counters();
  EXPECT_EQ(total.requests_completed, 24u);
  EXPECT_EQ(total.requests_failed, 0u);
}

TEST(ShardedServerTest, FailFastStopResolvesAcrossShards) {
  Replicas replicas(2);
  ShardedServeOptions opts;
  opts.server.drain_on_stop = false;
  ShardedServer server(replicas.raw, opts);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t sid = 1; sid <= 12; ++sid) {
    const Admission a =
        server.submit(session_request(sid, {1, 2, 3}, 40, sid));
    ASSERT_TRUE(a.accepted);
    ids.push_back(a.request_id);
  }
  server.start();
  server.stop();  // fail fast: nothing may be left unresolved
  std::size_t failed = 0;
  for (const std::uint64_t id : ids) {
    Response r;
    ASSERT_TRUE(server.poll(id, r)) << "request " << id << " unresolved";
    if (r.status == ResponseStatus::FailedShutdown) ++failed;
  }
  EXPECT_GT(failed, 0u);  // 12 x 40-token streams cannot finish in time
}

TEST(ShardedServerTest, ColdSessionsStealAwayFromFullShards) {
  Replicas replicas(2);
  ShardedServeOptions opts;
  opts.server.queue_depth = 2;
  ShardedServer server(replicas.raw, opts);  // never started: queues only

  // Pick four cold sessions that all hash home to shard 0 (collected
  // before any submit so the routes are still pure hashes).  The first
  // two fill shard 0's queue; the next two must be stolen onto shard 1
  // instead of rejected.
  std::vector<std::uint64_t> same_home;
  for (std::uint64_t sid = 1; same_home.size() < 4; ++sid) {
    ASSERT_LT(sid, 1000u) << "hash never maps four sessions to shard 0";
    if (server.shard_of(sid) == 0) same_home.push_back(sid);
  }
  for (const std::uint64_t sid : same_home) {
    ASSERT_TRUE(server.submit(session_request(sid, {1, 2}, 2, sid)).accepted)
        << "session " << sid;
  }
  EXPECT_EQ(server.shard_queue_size(0), 2u);
  EXPECT_EQ(server.shard_queue_size(1), 2u);
  EXPECT_EQ(server.steals(), 2u);
  // Every queue full: the 5th cold session is rejected with a hint.
  const Admission rejected =
      server.submit(session_request(77, {1, 2}, 2, 1));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_GT(rejected.retry_after_seconds, 0.0);
}

// ---- wire protocol --------------------------------------------------

TEST(ServeWireTest, FramesRoundTrip) {
  Request req;
  req.session_id = 42;
  req.context = {1, 2, 3, 4};
  req.new_tokens = 7;
  req.options.temperature = 0.75;
  req.options.max_context = 96;
  req.options.top_k = 5;
  req.seed = 1234;
  const Request back = wire::decode_submit(wire::encode_submit(req));
  EXPECT_EQ(back.session_id, req.session_id);
  EXPECT_EQ(back.context, req.context);
  EXPECT_EQ(back.new_tokens, req.new_tokens);
  EXPECT_EQ(back.options.temperature, req.options.temperature);
  EXPECT_EQ(back.options.max_context, req.options.max_context);
  EXPECT_EQ(back.options.top_k, req.options.top_k);
  EXPECT_EQ(back.seed, req.seed);

  Admission adm;
  adm.accepted = true;
  adm.request_id = 99;
  adm.queue_depth = 3;
  adm.retry_after_seconds = 0.25;
  const Admission adm_back =
      wire::decode_admission(wire::encode_admission(adm));
  EXPECT_EQ(adm_back.accepted, adm.accepted);
  EXPECT_EQ(adm_back.request_id, adm.request_id);
  EXPECT_EQ(adm_back.queue_depth, adm.queue_depth);
  EXPECT_EQ(adm_back.retry_after_seconds, adm.retry_after_seconds);

  Response resp;
  resp.request_id = 99;
  resp.session_id = 42;
  resp.status = ResponseStatus::Expired;
  resp.tokens = {9, 8, 7};
  resp.cache_hit = true;
  resp.queue_seconds = 0.5;
  resp.total_seconds = 1.5;
  const Response resp_back =
      wire::decode_response(wire::encode_response(resp));
  EXPECT_EQ(resp_back.request_id, resp.request_id);
  EXPECT_EQ(resp_back.session_id, resp.session_id);
  EXPECT_EQ(resp_back.status, resp.status);
  EXPECT_EQ(resp_back.tokens, resp.tokens);
  EXPECT_EQ(resp_back.cache_hit, resp.cache_hit);
  EXPECT_EQ(resp_back.queue_seconds, resp.queue_seconds);
  EXPECT_EQ(resp_back.total_seconds, resp.total_seconds);

  EXPECT_EQ(wire::frame_type(wire::encode_bye()), wire::FrameType::Bye);
}

TEST(ServeWireTest, MalformedFramesAreProtocolErrors) {
  EXPECT_THROW(wire::frame_type({}), net::ProtocolError);
  std::vector<std::byte> junk = {std::byte{200}};
  EXPECT_THROW(wire::frame_type(junk), net::ProtocolError);

  // Truncated submit: chop the tail off a valid frame.
  auto frame = wire::encode_submit(session_request(1, {1, 2, 3}, 4, 5));
  frame.resize(frame.size() - 3);
  EXPECT_THROW(wire::decode_submit(frame), net::ProtocolError);
  // Trailing garbage is rejected too.
  auto padded = wire::encode_bye();
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)wire::decode_submit(padded), net::ProtocolError);
}

// ---- adversarial wire bytes -----------------------------------------
//
// The frontend decodes whatever a client sends, and the client whatever
// the frontend sends: every decoder must survive mutated frames
// (decoder_fuzz.hpp) — decode in bounds or throw zipflm::Error.

std::vector<Index> random_tokens(Rng& rng) {
  std::vector<Index> t(rng.uniform_index(41));
  for (auto& id : t) id = static_cast<Index>(rng.uniform_index(1000));
  return t;
}

TEST(ServeWireFuzz, SubmitSurvivesMutation) {
  const int rejected = fuzz::mutate_and_decode(
      0x5E5E0001u,
      [](Rng& rng) {
        Request req;
        req.session_id = rng();
        req.new_tokens = rng.uniform_index(64);
        req.seed = rng();
        req.options.temperature = rng.uniform(0.0, 2.0);
        req.options.max_context = static_cast<Index>(rng.uniform_index(512));
        req.options.top_k = static_cast<Index>(rng.uniform_index(50));
        req.context = random_tokens(rng);
        // The token count follows the type byte and six 8-byte fields.
        return fuzz::Frame{wire::encode_submit(req),
                           {{1 + 6 * 8, req.context.size(), true}}};
      },
      [](const std::vector<std::byte>& b) { (void)wire::decode_submit(b); });
  EXPECT_GE(rejected, fuzz::kMutations / 3);
}

TEST(ServeWireFuzz, AdmissionSurvivesMutation) {
  const int rejected = fuzz::mutate_and_decode(
      0x5E5E0002u,
      [](Rng& rng) {
        Admission adm;
        adm.accepted = rng.uniform_index(2) == 0;
        adm.request_id = rng();
        adm.queue_depth = rng.uniform_index(100);
        adm.retry_after_seconds = rng.uniform(0.0, 1.0);
        return fuzz::Frame{wire::encode_admission(adm), {}};
      },
      [](const std::vector<std::byte>& b) {
        (void)wire::decode_admission(b);
      });
  EXPECT_GE(rejected, fuzz::kMutations / 3);
}

TEST(ServeWireFuzz, ResponseSurvivesMutation) {
  const int rejected = fuzz::mutate_and_decode(
      0x5E5E0003u,
      [](Rng& rng) {
        Response resp;
        resp.request_id = rng();
        resp.session_id = rng();
        resp.status = static_cast<ResponseStatus>(rng.uniform_index(3));
        resp.cache_hit = rng.uniform_index(2) == 0;
        resp.queue_seconds = rng.uniform(0.0, 1.0);
        resp.total_seconds = rng.uniform(0.0, 2.0);
        resp.tokens = random_tokens(rng);
        // type, two ids, status, cache_hit, two seconds, then the count.
        return fuzz::Frame{wire::encode_response(resp),
                           {{1 + 8 + 8 + 1 + 1 + 8 + 8, resp.tokens.size(),
                             true}}};
      },
      [](const std::vector<std::byte>& b) {
        (void)wire::decode_response(b);
      });
  EXPECT_GE(rejected, fuzz::kMutations / 3);
}

TEST(ServeWireFuzz, StatsRequestSurvivesMutation) {
  const int rejected = fuzz::mutate_and_decode(
      0x5E5E0004u,
      [](Rng& rng) {
        const std::string prefix = fuzz::random_name(rng);
        return fuzz::Frame{wire::encode_stats_request(prefix),
                           {{1, prefix.size(), true}}};
      },
      [](const std::vector<std::byte>& b) {
        (void)wire::decode_stats_request(b);
      });
  EXPECT_GE(rejected, fuzz::kMutations / 3);
}

TEST(ServeWireFuzz, StatsReplySurvivesMutation) {
  const int rejected = fuzz::mutate_and_decode(
      0x5E5E0005u,
      [](Rng& rng) {
        return fuzz::snapshot_frame(rng, [](const obs::MetricsSnapshot& s) {
          return wire::encode_stats_reply(s);
        });
      },
      [](const std::vector<std::byte>& b) {
        (void)wire::decode_stats_reply(b);
      });
  EXPECT_GE(rejected, fuzz::kMutations / 3);
}

// ---- socket frontend ------------------------------------------------

TEST(SocketFrontendTest, WireResponsesMatchInProcessServer) {
  // Ground truth from the in-process facade.
  auto reference_model = std::make_unique<CharLm>(small_config());
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kNewTokens = 6;
  std::vector<std::vector<Index>> contexts, expected;
  Server plain(*reference_model, ServeOptions{});
  plain.start();
  for (std::size_t s = 0; s < kSessions; ++s) {
    contexts.push_back({static_cast<Index>(2 + s), 3, 4});
    const Admission a = plain.submit(
        session_request(s + 1, contexts[s], kNewTokens, 500 + s));
    ASSERT_TRUE(a.accepted);
    expected.push_back(plain.wait(a.request_id).tokens);
  }
  plain.stop();

  // Same requests through rank 1 of a real socket world into a
  // 2-shard server (identical replicas): tokens must be bitwise equal.
  Replicas replicas(2);
  ShardedServeOptions opts;
  ShardedServer sharded(replicas.raw, opts);
  sharded.start();
  auto world = net::socketpair_mesh(2);
  SocketFrontend frontend(*world[0], sharded);
  std::thread frontend_thread([&] { frontend.run(); });
  {
    ServeClient client(*world[1], /*server_rank=*/0);
    std::vector<std::uint64_t> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const Admission a = client.submit(
          session_request(s + 1, contexts[s], kNewTokens, 500 + s));
      ASSERT_TRUE(a.accepted);
      ids.push_back(a.request_id);
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      const Response r = client.wait(ids[s]);
      EXPECT_EQ(r.status, ResponseStatus::Ok);
      EXPECT_EQ(r.session_id, s + 1);
      EXPECT_EQ(r.tokens, expected[s]) << "session " << s + 1;
    }
    client.bye();
  }
  frontend_thread.join();
  const FrontendStats& fs = frontend.stats();
  EXPECT_EQ(fs.submits, kSessions);
  EXPECT_EQ(fs.accepts, kSessions);
  EXPECT_EQ(fs.frames_sent, 2 * kSessions);  // admissions + responses
  sharded.stop();
}

TEST(SocketFrontendTest, DeadClientDoesNotWedgeTheFrontend) {
  // The model holds the request until the client is gone, so its reply
  // is orphaned whichever way the frontend learns of the death: by
  // reading the EOF first, or by the reply's frame failing on the dead
  // peer.
  GatedModel model(std::make_unique<CharLm>(small_config()));
  ShardedServeOptions opts;
  ShardedServer sharded({&model}, opts);
  sharded.start();
  auto world = net::socketpair_mesh(2);
  SocketFrontend frontend(*world[0], sharded);
  std::thread frontend_thread([&] { frontend.run(); });
  {
    ServeClient client(*world[1], /*server_rank=*/0);
    const Admission a =
        client.submit(session_request(1, {1, 2, 3}, 4, 9));
    ASSERT_TRUE(a.accepted);
    // No wait(), no bye(): the client vanishes mid-request.
  }
  world[1]->close();
  model.release();
  // The frontend must notice the dead peer, discard the orphaned
  // response, and drain — not spin forever.
  frontend_thread.join();
  EXPECT_EQ(frontend.stats().orphaned_responses, 1u);
  sharded.stop();
}

}  // namespace
}  // namespace zipflm::serve
