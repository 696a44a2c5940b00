// zipflm::obs v2 — the distributed telemetry plane: NTP-style clock
// offset estimation, telemetry wire frames, merged multi-process trace
// export, the serve Stats introspection frame, and the SLO health
// monitor.
//
// Everything here runs over the InProc transport (deterministic, no
// kernel) except where a socketpair world is the point (Stats frames
// through the real frontend event loop).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "zipflm/net/inproc.hpp"
#include "zipflm/net/socket.hpp"
#include "zipflm/net/telemetry.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/slo.hpp"
#include "zipflm/obs/telemetry.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/serve/serve_client.hpp"
#include "zipflm/serve/sharded_server.hpp"
#include "zipflm/serve/socket_frontend.hpp"
#include "decoder_fuzz.hpp"

using namespace zipflm;

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Clock-offset estimation
// ---------------------------------------------------------------------------

class ClockOffsetTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ClockOffsetTest, RecoversInjectedSkewWithinRttBound) {
  // Worker and collector share one steady clock; the worker's view is
  // shifted by a known skew.  The NTP estimate must recover that skew
  // with error bounded by the probe round-trip (theory: min_rtt / 2;
  // the assert allows min_rtt plus scheduling slack because the two
  // legs of an in-proc probe are genuinely asymmetric under load).
  const std::int64_t skew_ns = GetParam();
  net::InProcHub hub(2);
  auto collector_ep = hub.endpoint(0);
  auto worker_ep = hub.endpoint(1);

  std::thread worker([&] {
    net::telemetry::serve_collector(
        *worker_ep, 0, [&] { return steady_ns() + skew_ns; });
  });

  net::telemetry::CollectOptions opts;
  opts.probes = 31;
  opts.want_trace = false;
  opts.want_metrics = false;
  opts.clock = [] { return steady_ns(); };
  const net::telemetry::WorkerTelemetry t =
      net::telemetry::collect_from_peer(*collector_ep, 1, opts);
  worker.join();

  EXPECT_EQ(t.clock.probes, 31);
  EXPECT_GE(t.clock.min_rtt_ns, 0);
  const std::int64_t err = t.clock.offset_ns - skew_ns;
  const std::int64_t bound = t.clock.min_rtt_ns + 2'000'000;  // +2ms slack
  EXPECT_LE(err < 0 ? -err : err, bound)
      << "offset " << t.clock.offset_ns << " vs skew " << skew_ns
      << " (min rtt " << t.clock.min_rtt_ns << ")";
  EXPECT_TRUE(t.trace.lanes.empty());
}

INSTANTIATE_TEST_SUITE_P(Skews, ClockOffsetTest,
                         ::testing::Values(std::int64_t{0},
                                           std::int64_t{5'000'000'000},
                                           std::int64_t{-3'000'000'000}));

// ---------------------------------------------------------------------------
// Telemetry frame codecs
// ---------------------------------------------------------------------------

obs::ProcessTrace sample_trace() {
  obs::ProcessTrace trace;
  trace.label = "rank 3";
  trace.clock_offset_ns = -12345;
  obs::LaneSnapshot lane;
  lane.label = "rank 3";
  lane.sort_key = 3;
  lane.dropped = 7;
  for (int i = 0; i < 5; ++i) {
    obs::OwnedTraceEvent ev;
    ev.name = "span " + std::to_string(i);
    ev.arg_name[0] = "payload_bytes";
    ev.arg[0] = 1024.0 * i;
    if (i % 2 == 0) {
      ev.arg_name[3] = "codec";
      ev.arg[3] = 2.0;
    }
    ev.start_ns = 1000 + 100 * static_cast<std::uint64_t>(i);
    ev.dur_ns = 50;
    lane.events.push_back(std::move(ev));
  }
  trace.lanes.push_back(std::move(lane));
  obs::LaneSnapshot instants;
  instants.label = "rank 3 comm";
  instants.sort_key = 13;
  obs::OwnedTraceEvent tick;
  tick.name = "tick";
  tick.start_ns = 999;
  tick.instant = true;
  instants.events.push_back(std::move(tick));
  trace.lanes.push_back(std::move(instants));
  return trace;
}

void expect_traces_equal(const obs::ProcessTrace& a,
                         const obs::ProcessTrace& b) {
  EXPECT_EQ(a.label, b.label);
  ASSERT_EQ(a.lanes.size(), b.lanes.size());
  for (std::size_t l = 0; l < a.lanes.size(); ++l) {
    EXPECT_EQ(a.lanes[l].label, b.lanes[l].label);
    EXPECT_EQ(a.lanes[l].sort_key, b.lanes[l].sort_key);
    EXPECT_EQ(a.lanes[l].dropped, b.lanes[l].dropped);
    ASSERT_EQ(a.lanes[l].events.size(), b.lanes[l].events.size());
    for (std::size_t e = 0; e < a.lanes[l].events.size(); ++e) {
      const auto& x = a.lanes[l].events[e];
      const auto& y = b.lanes[l].events[e];
      EXPECT_EQ(x.name, y.name);
      EXPECT_EQ(x.start_ns, y.start_ns);
      EXPECT_EQ(x.dur_ns, y.dur_ns);
      EXPECT_EQ(x.instant, y.instant);
      for (std::size_t i = 0; i < obs::TraceEvent::kMaxArgs; ++i) {
        EXPECT_EQ(x.arg_name[i], y.arg_name[i]);
        EXPECT_EQ(x.arg[i], y.arg[i]);
      }
    }
  }
}

TEST(TelemetryWireTest, TraceChunksRoundTrip) {
  const obs::ProcessTrace trace = sample_trace();
  const auto chunks = net::telemetry::encode_trace_chunks(trace);
  ASSERT_FALSE(chunks.empty());
  obs::ProcessTrace back;
  for (const auto& chunk : chunks) {
    ASSERT_EQ(net::telemetry::frame_type(chunk),
              net::telemetry::FrameType::TraceChunk);
    net::telemetry::merge_trace_chunk(chunk, back);
  }
  expect_traces_equal(trace, back);
}

TEST(TelemetryWireTest, TinyTargetSplitsIntoManyChunksLosslessly) {
  obs::ProcessTrace trace;
  trace.label = "rank 0";
  obs::LaneSnapshot lane;
  lane.label = "rank 0";
  lane.dropped = 84;
  for (int i = 0; i < 500; ++i) {
    obs::OwnedTraceEvent ev;
    ev.name = "event with a name long enough to dodge tiny-chunk packing " +
              std::to_string(i);
    ev.start_ns = static_cast<std::uint64_t>(i);
    ev.dur_ns = 1;
    lane.events.push_back(std::move(ev));
  }
  trace.lanes.push_back(std::move(lane));

  // Target below the enforced floor still splits (clamped, not zero).
  const auto chunks = net::telemetry::encode_trace_chunks(trace, 1);
  EXPECT_GT(chunks.size(), 1u);
  obs::ProcessTrace back;
  for (const auto& chunk : chunks) {
    net::telemetry::merge_trace_chunk(chunk, back);
  }
  expect_traces_equal(trace, back);
}

TEST(TelemetryWireTest, MetricsFrameRoundTrip) {
  obs::MetricsSnapshot snap;
  snap.counters["a/count"] = 42;
  snap.counters["weird \"name\"\\with\nescapes"] = 7;
  snap.gauges["b/depth"] = -2.5;
  obs::Histogram hist;
  for (int i = 1; i <= 100; ++i) hist.record(1e-3 * i);
  snap.histograms["c/latency"] = hist.snapshot();

  const auto frame = net::telemetry::encode_metrics_frame(snap);
  ASSERT_EQ(net::telemetry::frame_type(frame),
            net::telemetry::FrameType::MetricsChunk);
  const obs::MetricsSnapshot back =
      net::telemetry::decode_metrics_frame(frame);
  EXPECT_EQ(back.counters, snap.counters);
  EXPECT_EQ(back.gauges, snap.gauges);
  ASSERT_EQ(back.histograms.size(), 1u);
  const auto& h = back.histograms.at("c/latency");
  EXPECT_EQ(h.count, snap.histograms.at("c/latency").count);
  EXPECT_EQ(h.sum, snap.histograms.at("c/latency").sum);
  EXPECT_EQ(h.min, snap.histograms.at("c/latency").min);
  EXPECT_EQ(h.max, snap.histograms.at("c/latency").max);
  EXPECT_EQ(h.buckets, snap.histograms.at("c/latency").buckets);
  EXPECT_DOUBLE_EQ(h.percentile(0.5),
                   snap.histograms.at("c/latency").percentile(0.5));
}

TEST(TelemetryWireTest, ControlFramesRoundTrip) {
  net::telemetry::Begin begin;
  begin.probes = 9;
  begin.want_trace = false;
  begin.want_metrics = true;
  const net::telemetry::Begin b2 =
      net::telemetry::decode_begin(net::telemetry::encode_begin(begin));
  EXPECT_EQ(b2.probes, 9u);
  EXPECT_FALSE(b2.want_trace);
  EXPECT_TRUE(b2.want_metrics);

  net::telemetry::ClockProbe probe{17, 12345};
  const auto p2 = net::telemetry::decode_clock_probe(
      net::telemetry::encode_clock_probe(probe));
  EXPECT_EQ(p2.probe_id, 17u);
  EXPECT_EQ(p2.send_ns, 12345u);

  net::telemetry::ClockReply reply{17, 1000, 2000};
  const auto r2 = net::telemetry::decode_clock_reply(
      net::telemetry::encode_clock_reply(reply));
  EXPECT_EQ(r2.probe_id, 17u);
  EXPECT_EQ(r2.recv_ns, 1000u);
  EXPECT_EQ(r2.send_ns, 2000u);

  EXPECT_EQ(net::telemetry::frame_type(net::telemetry::encode_done()),
            net::telemetry::FrameType::Done);
}

TEST(TelemetryWireTest, MalformedFramesAreProtocolErrors) {
  EXPECT_THROW(net::telemetry::frame_type({}), net::ProtocolError);
  EXPECT_THROW(net::telemetry::frame_type({std::byte{99}}),
               net::ProtocolError);

  // Truncation anywhere in the body.
  auto frame = net::telemetry::encode_metrics_frame({});
  frame.resize(frame.size() - 1);
  EXPECT_THROW(net::telemetry::decode_metrics_frame(frame),
               net::ProtocolError);

  auto chunk = net::telemetry::encode_trace_chunks(sample_trace()).front();
  chunk.resize(chunk.size() - 3);
  obs::ProcessTrace sink;
  EXPECT_THROW(net::telemetry::merge_trace_chunk(chunk, sink),
               net::ProtocolError);

  // Trailing garbage.
  auto padded = net::telemetry::encode_begin({});
  padded.push_back(std::byte{0});
  EXPECT_THROW(net::telemetry::decode_begin(padded), net::ProtocolError);

  // Wrong frame type for the decoder.
  EXPECT_THROW(net::telemetry::decode_clock_probe(
                   net::telemetry::encode_done()),
               net::ProtocolError);

  // A Begin demanding zero probes is meaningless (no offset estimate).
  auto zero_probes = net::telemetry::encode_begin({});
  // probes is the LE u32 right after the type byte.
  zero_probes[1] = zero_probes[2] = zero_probes[3] = zero_probes[4] =
      std::byte{0};
  EXPECT_THROW(net::telemetry::decode_begin(zero_probes),
               net::ProtocolError);
}

// Adversarial bytes: the collector decodes whatever a worker ships.
// Every frame decoder must survive mutated frames (decoder_fuzz.hpp) —
// decode in bounds or throw zipflm::Error.

TEST(TelemetryWireFuzz, BeginSurvivesMutation) {
  const int rejected = fuzz::mutate_and_decode(
      0x7E1E0001u,
      [](Rng& rng) {
        net::telemetry::Begin begin;
        begin.probes = static_cast<std::uint32_t>(1 + rng.uniform_index(4096));
        begin.want_trace = rng.uniform_index(2) == 0;
        begin.want_metrics = rng.uniform_index(2) == 0;
        return fuzz::Frame{net::telemetry::encode_begin(begin), {}};
      },
      [](const std::vector<std::byte>& b) {
        (void)net::telemetry::decode_begin(b);
      });
  EXPECT_GE(rejected, fuzz::kMutations / 3);
}

TEST(TelemetryWireFuzz, ClockFramesSurviveMutation) {
  const int rejected = fuzz::mutate_and_decode(
      0x7E1E0002u,
      [](Rng& rng) {
        if (rng.uniform_index(2) == 0) {
          return fuzz::Frame{
              net::telemetry::encode_clock_probe({rng(), rng()}), {}};
        }
        return fuzz::Frame{
            net::telemetry::encode_clock_reply({rng(), rng(), rng()}), {}};
      },
      [](const std::vector<std::byte>& b) {
        if (net::telemetry::frame_type(b) ==
            net::telemetry::FrameType::ClockProbe) {
          (void)net::telemetry::decode_clock_probe(b);
        } else {
          (void)net::telemetry::decode_clock_reply(b);
        }
      });
  EXPECT_GE(rejected, fuzz::kMutations / 3);
}

TEST(TelemetryWireFuzz, TraceChunksSurviveMutation) {
  const int rejected = fuzz::mutate_and_decode(
      0x7E1E0003u,
      [](Rng& rng) {
        obs::ProcessTrace trace;
        trace.label = fuzz::random_name(rng);
        for (auto l = 1 + rng.uniform_index(3); l > 0; --l) {
          obs::LaneSnapshot lane;
          lane.label = fuzz::random_name(rng);
          lane.sort_key = static_cast<int>(rng.uniform_index(100));
          lane.dropped = 1 + rng.uniform_index(5);  // every lane ships
          for (auto n = rng.uniform_index(5); n > 0; --n) {
            obs::OwnedTraceEvent ev;
            ev.name = fuzz::random_name(rng);
            for (std::size_t a = 0; a < obs::TraceEvent::kMaxArgs; ++a) {
              ev.arg_name[a] = fuzz::random_name(rng);  // empty: no arg
              ev.arg[a] = rng.normal();
            }
            ev.start_ns = rng.uniform_index(1u << 30);
            ev.dur_ns = rng.uniform_index(1u << 20);
            ev.instant = rng.uniform_index(2) == 0;
            lane.events.push_back(ev);
          }
          trace.lanes.push_back(lane);
        }
        // A few hundred bytes: one chunk, far below the split target.
        fuzz::Frame f{net::telemetry::encode_trace_chunks(trace).front(), {}};
        // The lane sections, and the last lane's events, run to the end
        // of the frame: both counts are exact.
        f.counts.push_back(
            {1 + 8 + trace.label.size(), trace.lanes.size(), true});
        obs::ProcessTrace head = trace;
        head.lanes.back().events.clear();
        f.counts.push_back(
            {net::telemetry::encode_trace_chunks(head).front().size() - 8,
             trace.lanes.back().events.size(), true});
        return f;
      },
      [](const std::vector<std::byte>& b) {
        obs::ProcessTrace into;
        net::telemetry::merge_trace_chunk(b, into);
      });
  EXPECT_GE(rejected, fuzz::kMutations / 3);
}

TEST(TelemetryWireFuzz, MetricsFramesSurviveMutation) {
  const int rejected = fuzz::mutate_and_decode(
      0x7E1E0004u,
      [](Rng& rng) {
        return fuzz::snapshot_frame(rng, [](const obs::MetricsSnapshot& s) {
          return net::telemetry::encode_metrics_frame(s);
        });
      },
      [](const std::vector<std::byte>& b) {
        (void)net::telemetry::decode_metrics_frame(b);
      });
  EXPECT_GE(rejected, fuzz::kMutations / 3);
}

// ---------------------------------------------------------------------------
// Merged multi-process export
// ---------------------------------------------------------------------------

TEST(MergedTraceTest, AlignsLanesAcrossProcessesAndShiftsToZero) {
  // Two processes, worker clock 2000ns ahead: after alignment both
  // "step" spans start at the same instant, and the document's earliest
  // timestamp is exactly 0.
  obs::ProcessTrace collector;
  collector.label = "rank 0";
  collector.pid = 1;
  collector.clock_offset_ns = 0;
  obs::LaneSnapshot lane0;
  lane0.label = "rank 0";
  lane0.sort_key = 0;
  obs::OwnedTraceEvent e0;
  e0.name = "step";
  e0.start_ns = 10'000;
  e0.dur_ns = 4'000;
  lane0.events.push_back(e0);
  collector.lanes.push_back(std::move(lane0));

  obs::ProcessTrace worker;
  worker.label = "rank 1";
  worker.pid = 2;
  worker.clock_offset_ns = 2'000;  // worker clock runs ahead
  obs::LaneSnapshot lane1;
  lane1.label = "rank 1";
  lane1.sort_key = 1;
  obs::OwnedTraceEvent e1 = e0;
  e1.start_ns = 12'000;  // same true instant as e0, read on a fast clock
  lane1.events.push_back(e1);
  obs::OwnedTraceEvent e2 = e0;
  e2.name = "later";
  e2.start_ns = 13'000;
  lane1.events.push_back(e2);
  worker.lanes.push_back(std::move(lane1));

  std::ostringstream out;
  const obs::TraceExportStats st =
      obs::write_chrome_trace_merged(out, {collector, worker});
  EXPECT_EQ(st.events, 3u);
  EXPECT_EQ(st.lanes, 2u);
  const std::string json = out.str();

  // Both process lanes are named, and both aligned "step" spans start
  // at ts 0 (µs): the earliest instant shifted to the origin.
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  std::size_t zero_ts = 0;
  for (std::size_t pos = json.find("\"ts\":0,"); pos != std::string::npos;
       pos = json.find("\"ts\":0,", pos + 1)) {
    ++zero_ts;
  }
  EXPECT_EQ(zero_ts, 2u) << json;
  // The worker's second event lands 1µs after the aligned origin.
  EXPECT_NE(json.find("\"name\":\"later\",\"ph\":\"X\",\"pid\":2,\"tid\":0,"
                      "\"ts\":1,"),
            std::string::npos)
      << json;
}

TEST(MergedTraceTest, EndToEndOverInProcTransport) {
  // A worker's live ring (real emits, real process epoch) shipped over
  // the in-proc transport and merged with the collector's own lanes:
  // per-lane event order must survive and every aligned ts must be
  // non-negative.
  obs::trace_clear();
  obs::trace_set_buffer_capacity(1 << 10);
  obs::set_process_label("collector");
  obs::set_thread_lane("main", 0);
  obs::trace_enable(true);
  for (int i = 0; i < 3; ++i) {
    obs::SpanScope span("local_step", "i", static_cast<double>(i));
  }
  obs::trace_enable(false);

  net::InProcHub hub(2);
  auto ep0 = hub.endpoint(0);
  auto ep1 = hub.endpoint(1);
  std::thread worker([&] {
    // The worker ships the same process-wide lanes (this is one
    // process pretending to be two); the point is the wire path.
    net::telemetry::serve_collector(*ep1, 0);
  });
  net::telemetry::CollectOptions opts;
  opts.want_metrics = false;
  net::telemetry::WorkerTelemetry t =
      net::telemetry::collect_from_peer(*ep0, 1, opts);
  worker.join();

  obs::ProcessTrace self;
  self.label = obs::process_label();
  self.pid = 1;
  self.lanes = obs::trace_lane_snapshot();
  t.trace.pid = 2;

  std::ostringstream out;
  const obs::TraceExportStats st =
      obs::write_chrome_trace_merged(out, {self, t.trace});
  EXPECT_GE(st.events, 6u);  // 3 spans on each side of the merge
  const std::string json = out.str();
  EXPECT_EQ(json.find("\"ts\":-"), std::string::npos)
      << "negative aligned timestamp";
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Serve Stats frame
// ---------------------------------------------------------------------------

CharLmConfig tiny_model() {
  CharLmConfig cfg;
  cfg.embed_dim = 16;
  cfg.hidden_dim = 32;
  cfg.depth = 1;
  return cfg;
}

TEST(ServeStatsTest, WirePulledRegistryMatchesInProcessAggregate) {
  std::vector<std::unique_ptr<CharLm>> replicas;
  std::vector<LmModel*> models;
  for (int k = 0; k < 2; ++k) {
    replicas.push_back(std::make_unique<CharLm>(tiny_model()));
    models.push_back(replicas.back().get());
  }
  serve::ShardedServeOptions opts;
  opts.server.metrics_scope = "statspar";
  serve::ShardedServer server(models, opts);
  server.start();

  auto world = net::socketpair_mesh(2);
  serve::SocketFrontend frontend(*world[0], server);
  std::thread frontend_thread([&] { frontend.run(); });
  {
    serve::ServeClient client(*world[1], /*server_rank=*/0);
    constexpr std::uint64_t kRequests = 10;
    std::vector<std::uint64_t> ids;
    for (std::uint64_t s = 1; s <= kRequests; ++s) {
      serve::Request req;
      req.session_id = s;
      req.context = {static_cast<Index>(1 + s % 5), 2, 3};
      req.new_tokens = 4;
      req.seed = 40 + s;
      const serve::Admission a = client.submit(req);
      ASSERT_TRUE(a.accepted);
      ids.push_back(a.request_id);
    }
    for (const std::uint64_t id : ids) {
      EXPECT_EQ(client.wait(id).status, serve::ResponseStatus::Ok);
    }

    // Full pull: the aggregate counters must equal what the facade
    // reports in-process, and the per-shard rows must sum to them.
    const obs::MetricsSnapshot snap = client.stats("statspar");
    EXPECT_EQ(snap.counters.at("statspar/requests_completed"), kRequests);
    std::uint64_t per_shard = 0;
    for (int k = 0; k < 2; ++k) {
      per_shard += snap.counters.at("statspar/s" + std::to_string(k) +
                                    "/requests_completed");
    }
    EXPECT_EQ(per_shard, kRequests);
    EXPECT_EQ(snap.counters.at("statspar/steals"), server.steals());
    const auto& hist = snap.histograms.at("statspar/request_seconds");
    EXPECT_EQ(hist.count, kRequests);
    EXPECT_GT(hist.percentile(0.5), 0.0);

    // Prefix filter: a shard-scoped pull carries no foreign names.
    const obs::MetricsSnapshot s0 = client.stats("statspar/s0");
    EXPECT_FALSE(s0.counters.empty());
    for (const auto& [name, v] : s0.counters) {
      EXPECT_EQ(name.rfind("statspar/s0", 0), 0u) << name;
    }
    EXPECT_EQ(s0.histograms.count("statspar/request_seconds"), 0u);

    client.bye();
  }
  frontend_thread.join();
  EXPECT_EQ(frontend.stats().stats_requests, 2u);
  server.stop();
}

// ---------------------------------------------------------------------------
// SLO monitor
// ---------------------------------------------------------------------------

obs::SloOptions slo_opts_for(const std::string& scope) {
  obs::SloOptions opts;
  opts.scope = scope;
  opts.export_metrics = false;
  opts.min_window_count = 8;
  opts.trip_after = 2;
  opts.clear_after = 2;
  opts.clear_fraction = 0.8;
  return opts;
}

obs::MetricsSnapshot latency_snapshot(const std::string& scope,
                                      obs::Histogram& hist) {
  obs::MetricsSnapshot snap;
  snap.histograms[scope + "/request_seconds"] = hist.snapshot();
  return snap;
}

TEST(SloMonitorTest, LatencyTailTripsAfterConsecutiveBadWindowsAndClears) {
  obs::SloMonitor monitor(slo_opts_for("svc"));  // p99/p50 threshold 5.0
  int trips = 0, clears = 0;
  monitor.set_alert_hook([&](const obs::SloAlert& a) {
    ASSERT_EQ(a.rule, "latency_tail");
    (a.tripped ? trips : clears) += 1;
  });

  obs::Histogram hist;
  const auto window = [&](double tail_seconds) {
    for (int i = 0; i < 19; ++i) hist.record(1e-3);
    hist.record(tail_seconds);
    return monitor.observe(latency_snapshot("svc", hist));
  };

  monitor.observe(latency_snapshot("svc", hist));  // baseline window
  EXPECT_FALSE(monitor.any_tripped());

  // One bad window is absorbed by hysteresis...
  EXPECT_TRUE(window(1.0).empty());
  EXPECT_FALSE(monitor.tripped("latency_tail"));
  // ...the second consecutive one trips.
  const auto alerts = window(1.0);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_TRUE(alerts[0].tripped);
  EXPECT_TRUE(monitor.tripped("latency_tail"));
  EXPECT_GT(monitor.last_value("latency_tail"), 5.0);

  // Healthy windows: first is absorbed, second clears.
  EXPECT_TRUE(window(1e-3).empty());
  EXPECT_TRUE(monitor.tripped("latency_tail"));
  EXPECT_FALSE(window(1e-3).empty());
  EXPECT_FALSE(monitor.tripped("latency_tail"));
  EXPECT_EQ(monitor.trips("latency_tail"), 1u);
  EXPECT_EQ(trips, 1);
  EXPECT_EQ(clears, 1);
}

TEST(SloMonitorTest, HysteresisBandNeitherTripsNorClears) {
  // queue_depth judges raw gauge values, making band arithmetic exact:
  // threshold 64, clear bound 51.2 — 60 sits strictly between.
  obs::SloMonitor monitor(slo_opts_for("svc"));
  const auto depth_window = [&](double depth) {
    obs::MetricsSnapshot snap;
    snap.gauges["svc/s0/queue_depth"] = depth;
    return monitor.observe(snap);
  };

  depth_window(70.0);
  depth_window(70.0);
  EXPECT_TRUE(monitor.tripped("queue_depth"));

  // Any number of in-band windows leaves the trip latched.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(depth_window(60.0).empty());
  EXPECT_TRUE(monitor.tripped("queue_depth"));

  // The band also resets a good streak: good, band, good, good.
  depth_window(10.0);
  depth_window(60.0);
  depth_window(10.0);
  EXPECT_TRUE(monitor.tripped("queue_depth"));
  depth_window(10.0);
  EXPECT_FALSE(monitor.tripped("queue_depth"));
  EXPECT_EQ(monitor.trips("queue_depth"), 1u);
}

TEST(SloMonitorTest, ThinWindowsLeaveStateUntouched) {
  obs::SloMonitor monitor(slo_opts_for("svc"));
  obs::Histogram hist;
  monitor.observe(latency_snapshot("svc", hist));  // baseline

  // 2 samples < min_window_count 8: never judged, still "n/a".
  for (int w = 0; w < 5; ++w) {
    hist.record(1e-3);
    hist.record(10.0);
    EXPECT_TRUE(monitor.observe(latency_snapshot("svc", hist)).empty());
  }
  EXPECT_FALSE(monitor.any_tripped());
  EXPECT_NE(monitor.summary().find("latency_tail=n/a"), std::string::npos)
      << monitor.summary();
}

TEST(SloMonitorTest, RejectRateJudgesAdmissionDeltas) {
  obs::SloMonitor monitor(slo_opts_for("svc"));  // threshold 0.25
  std::uint64_t admitted = 0, rejected = 0;
  const auto window = [&](std::uint64_t adm, std::uint64_t rej) {
    admitted += adm;
    rejected += rej;
    obs::MetricsSnapshot snap;
    snap.counters["svc/requests_admitted"] = admitted;
    snap.counters["svc/requests_rejected"] = rejected;
    return monitor.observe(snap);
  };

  window(0, 0);  // baseline
  window(10, 90);
  window(10, 90);
  EXPECT_TRUE(monitor.tripped("reject_rate"));
  EXPECT_DOUBLE_EQ(monitor.last_value("reject_rate"), 0.9);
  // Lifetime totals stay awful; the *window* turning healthy is what
  // clears — the whole point of judging deltas.
  window(100, 0);
  window(100, 0);
  EXPECT_FALSE(monitor.tripped("reject_rate"));
}

// ---------------------------------------------------------------------------
// Metrics JSON escaping (satellite: names must never break the document)
// ---------------------------------------------------------------------------

bool balanced_json_object(const std::string& s) {
  // Escape-aware structural scan: every quote opens/closes a string
  // (honoring backslash escapes), braces balance outside strings, and
  // no raw control characters survive.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c < 0x20) return false;  // must have been \uXXXX-escaped
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped character
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++depth;
    else if (c == '}' && --depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(MetricsJsonTest, HostileMetricNamesStayWellFormed) {
  auto& reg = obs::MetricsRegistry::global();
  // Deterministic "fuzz": every byte class that can break a JSON
  // string — quotes, backslashes, newlines, tabs, raw control bytes,
  // DEL, and multi-byte UTF-8 — spread across all three metric kinds.
  const std::string hostile[] = {
      "esc/quote\"inner", "esc/back\\slash", "esc/newline\nsplit",
      "esc/tab\tstop",    std::string("esc/ctrl") + '\x01' + "byte",
      "esc/utf8 héllo",   "esc/del\x7f",
  };
  for (std::size_t i = 0; i < std::size(hostile); ++i) {
    reg.counter(hostile[i]).add(i + 1);
  }
  reg.gauge("esc/gauge\"q").set(1.5);
  reg.histogram("esc/hist\\h").record(0.01);

  const std::string json = reg.to_json();
  EXPECT_TRUE(balanced_json_object(json)) << json;
  EXPECT_NE(json.find("esc/quote\\\"inner"), std::string::npos);
  EXPECT_NE(json.find("esc/back\\\\slash"), std::string::npos);
  // Control bytes escape to lowercase \u00xx (the writer never emits
  // two-character shorthands — one uniform path, one thing to fuzz).
  EXPECT_NE(json.find("esc/newline\\u000asplit"), std::string::npos);
  EXPECT_NE(json.find("esc/ctrl\\u0001byte"), std::string::npos);

  // The same names survive the telemetry wire byte-identically.
  obs::MetricsSnapshot snap;
  for (const std::string& name : hostile) {
    snap.counters[name] = reg.counter(name).value();
  }
  const obs::MetricsSnapshot back = net::telemetry::decode_metrics_frame(
      net::telemetry::encode_metrics_frame(snap));
  EXPECT_EQ(back.counters, snap.counters);

  reg.reset("esc/");
}

TEST(MetricsJsonTest, WindowedSnapshotDeltas) {
  obs::Histogram hist;
  for (int i = 0; i < 50; ++i) hist.record(1e-3);
  const obs::HistogramSnapshot before = hist.snapshot();
  for (int i = 0; i < 50; ++i) hist.record(1.0);
  const obs::HistogramSnapshot after = hist.snapshot();

  const obs::HistogramSnapshot window = after.since(before);
  EXPECT_EQ(window.count, 50u);
  EXPECT_NEAR(window.sum, 50.0, 1e-9);
  // The window holds only the slow samples: its p50 is the slow mode,
  // while the lifetime p50 straddles both.
  EXPECT_GT(window.percentile(0.5), 0.5);
  // since(self) is the empty window.
  EXPECT_EQ(after.since(after).count, 0u);
}

}  // namespace
