// zipflm::obs — trace buffers, Chrome trace export, metrics registry,
// and the equivalence contracts the unified snapshot promises:
// PhaseScope ("phase/..."), TrafficLedger ("comm/..."), ServeCounters
// ("serve/..."), and value-vs-atomic histogram percentiles.
//
// The concurrent-emission tests run under the TSAN suite (check.sh
// tier 2), which is what actually proves the lock-free ring's
// synchronization contract.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <numeric>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/sharded_exchange.hpp"
#include "zipflm/core/trainer.hpp"
#include "zipflm/data/markov.hpp"
#include "zipflm/nn/generate.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/serve/server.hpp"
#include "zipflm/support/phase_scope.hpp"
#include "zipflm/support/thread_pool.hpp"

using namespace zipflm;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (values, strings with escapes,
// objects, arrays).  Rejects trailing garbage.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') { ++pos_; return true; }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string export_trace() {
  std::ostringstream out;
  obs::write_chrome_trace(out);
  return out.str();
}

/// tid of the lane whose thread_name metadata matches `label` exactly
/// (exporter format: ...,"tid":N,"args":{"name":"<label>"}}), or -1.
int lane_tid(const std::string& json, const std::string& label) {
  const std::string needle = ",\"args\":{\"name\":\"" + label + "\"}}";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  const std::size_t tid_key = json.rfind("\"tid\":", at);
  if (tid_key == std::string::npos) return -1;
  return std::atoi(json.c_str() + tid_key + 6);
}

/// True iff an event named `name` was exported on lane `tid`.
bool event_on_lane(const std::string& json, const std::string& name,
                   int tid) {
  const std::string needle = "{\"name\":\"" + name +
                             "\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
                             std::to_string(tid) + ",";
  return json.find(needle) != std::string::npos;
}

struct TraceGuard {
  TraceGuard() {
    obs::trace_clear();
    obs::trace_enable(true);
  }
  ~TraceGuard() {
    obs::trace_enable(false);
    obs::trace_clear();
  }
};

// Tests that assert on emitted trace content only make sense when the
// emission macros are compiled in (-DZIPFLM_TRACE=ON, the default).
#if ZIPFLM_TRACE
#define SKIP_WITHOUT_TRACE() ((void)0)
#else
#define SKIP_WITHOUT_TRACE() \
  GTEST_SKIP() << "tracing compiled out (ZIPFLM_TRACE=0)"
#endif

}  // namespace

// ---------------------------------------------------------------------------
// Trace buffer + export
// ---------------------------------------------------------------------------

TEST(Trace, DisabledEmitsNothing) {
  obs::trace_clear();
  obs::trace_enable(false);
  { ZIPFLM_TRACE_SPAN("should_not_appear"); }
  ZIPFLM_TRACE_INSTANT("nor_this");
  const std::string json = export_trace();
  EXPECT_EQ(json.find("should_not_appear"), std::string::npos);
  EXPECT_EQ(json.find("nor_this"), std::string::npos);
}

TEST(Trace, ExportIsWellFormedJsonWithLanes) {
  SKIP_WITHOUT_TRACE();
  TraceGuard guard;
  obs::set_thread_lane("test main", -1);
  {
    obs::SpanScope outer("outer_span", "bytes", 128.0);
    ZIPFLM_TRACE_SPAN("inner_span");
    ZIPFLM_TRACE_INSTANT("tick", "step", 3.0);
  }
  const std::string json = export_trace();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  const int tid = lane_tid(json, "test main");
  ASSERT_GE(tid, 0) << json;
  EXPECT_TRUE(event_on_lane(json, "outer_span", tid));
  EXPECT_TRUE(event_on_lane(json, "inner_span", tid));
  // Instants carry ph:"i" and a scope.
  EXPECT_NE(json.find("{\"name\":\"tick\",\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  // Args survive: the span's static arg and the instant's.
  EXPECT_NE(json.find("\"args\":{\"bytes\":128}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"step\":3}"), std::string::npos);
}

TEST(Trace, DropOldestKeepsNewestAndReportsLoss) {
  SKIP_WITHOUT_TRACE();
  TraceGuard guard;
  obs::trace_set_buffer_capacity(16);
  std::thread t([] {
    obs::set_thread_lane("droplane", 500);
    for (int i = 0; i < 100; ++i) {
      obs::trace_instant("drop_tick", "i", static_cast<double>(i));
    }
  });
  t.join();
  const std::string json = export_trace();
  obs::trace_set_buffer_capacity(1 << 15);
  EXPECT_TRUE(JsonChecker(json).valid());
  // 100 emitted into a 16-slot ring: 84 dropped, newest survive.
  EXPECT_NE(json.find("droplane (dropped 84)"), std::string::npos) << json;
  EXPECT_NE(json.find("\"args\":{\"i\":99}"), std::string::npos);
  EXPECT_EQ(json.find("\"args\":{\"i\":83}"), std::string::npos);
}

TEST(Trace, SpanNestingByTimeContainment) {
  SKIP_WITHOUT_TRACE();
  TraceGuard guard;
  obs::set_thread_lane("nest lane", -1);
  {
    obs::SpanScope outer("nest_outer");
    obs::SpanScope inner("nest_inner");
  }
  const std::string json = export_trace();
  // Ring order is emission order: inner closes (and lands) first; both
  // must report inner.ts >= outer.ts (the exporter writes ts then dur).
  const auto ts_of = [&](const std::string& name) {
    const std::string needle = "{\"name\":\"" + name + "\"";
    const std::size_t at = json.find(needle);
    EXPECT_NE(at, std::string::npos) << name;
    const std::size_t ts = json.find("\"ts\":", at);
    return std::atof(json.c_str() + ts + 5);
  };
  EXPECT_GE(ts_of("nest_inner"), ts_of("nest_outer"));
}

TEST(Trace, ConcurrentRankAndPoolEmissionWithLaneAssignment) {
  SKIP_WITHOUT_TRACE();
  TraceGuard guard;
  // Rank threads and pool workers emit concurrently; export afterwards
  // is ordered by CommWorld::run's joins and the pool region's done
  // counter.  TSAN (check.sh tier 2) is the real assertion here.
  ThreadPool pool(4);
  CommWorld world(4);
  std::atomic<std::uint64_t> pool_work{0};
  for (int iter = 0; iter < 3; ++iter) {
    world.run([&](Communicator& comm) {
      std::vector<float> grads(4096, static_cast<float>(comm.rank()));
      comm.allreduce_sum(std::span<float>(grads));
      comm.barrier();
    });
    pool.parallel_chunks(
        100'000,
        [&](std::size_t begin, std::size_t end) {
          pool_work.fetch_add(end - begin, std::memory_order_relaxed);
        },
        1024);
  }
  const std::string json = export_trace();
  EXPECT_TRUE(JsonChecker(json).valid());
  for (int r = 0; r < 4; ++r) {
    const int tid = lane_tid(json, "rank " + std::to_string(r));
    ASSERT_GE(tid, 0) << "missing lane for rank " << r;
    EXPECT_TRUE(event_on_lane(json, "allreduce_f32", tid));
    EXPECT_TRUE(event_on_lane(json, "barrier", tid));
  }
  // Pool lanes exist and carry the chunk spans (worker indices depend
  // on scheduling, so just look for the span and any pool lane).
  EXPECT_NE(json.find("pool"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parallel_region\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pool_chunk\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset("t0/");
  auto& c = reg.counter("t0/events");
  auto& g = reg.gauge("t0/level");
  auto& h = reg.histogram("t0/latency");
  EXPECT_EQ(&c, &reg.counter("t0/events"));  // stable identity

  c.add(3);
  c.add();
  g.set(2.5);
  g.add(1.5);
  g.set_max(3.0);  // below current 4.0: no effect
  h.record(0.010);
  h.record(0.020);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("t0/events"), 4u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("t0/level"), 4.0);
  const auto& hs = snap.histograms.at("t0/latency");
  EXPECT_EQ(hs.count, 2u);
  EXPECT_DOUBLE_EQ(hs.min, 0.010);
  EXPECT_DOUBLE_EQ(hs.max, 0.020);
  EXPECT_NEAR(hs.mean(), 0.015, 1e-12);

  const std::string json = reg.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"t0/events\":4"), std::string::npos);

  reg.reset("t0/");
  EXPECT_EQ(c.value(), 0u);        // cached reference survives reset
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Metrics, ResetIsPrefixScoped) {
  auto& reg = obs::MetricsRegistry::global();
  auto& a = reg.counter("t1a/x");
  auto& b = reg.counter("t1b/x");
  a.add(5);
  b.add(7);
  reg.reset("t1a/");
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 7u);
  reg.reset("t1b/");
}

TEST(Metrics, ConcurrentUpdatesLoseNothing) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset("t2/");
  auto& c = reg.counter("t2/adds");
  auto& g = reg.gauge("t2/sum");
  auto& h = reg.histogram("t2/obs");
  constexpr int kThreads = 8;
  constexpr int kPer = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) {
        c.add(1);
        g.add(1.0);
        h.record(0.001);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPer);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPer);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPer);
}

TEST(Metrics, ValueHistogramMatchesAtomicHistogram) {
  // ServeCounters keep value histograms that the "serve/..." mirror
  // records into atomic ones: the same observations must report the
  // same statistics.
  obs::Histogram h;
  obs::HistogramSnapshot v;
  // Spread across several decades, including the clamp paths.
  const double values[] = {1e-8, 3e-6, 5e-5, 2e-4,  9e-4, 1e-3, 4e-3,
                           0.02, 0.5,  1.7,  25.0, 250.0, -1.0};
  for (const double x : values) {
    h.record(x);
    v.record(x);
  }
  const auto hs = h.snapshot();
  EXPECT_EQ(hs.count, v.count);
  EXPECT_DOUBLE_EQ(hs.sum, v.sum);
  EXPECT_DOUBLE_EQ(hs.min, v.min);
  EXPECT_DOUBLE_EQ(hs.max, v.max);
  EXPECT_EQ(hs.buckets, v.buckets);
  for (const double p : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(hs.percentile(p), v.percentile(p)) << "p=" << p;
  }
}

TEST(Metrics, ValueHistogramMergePreservesStats) {
  obs::HistogramSnapshot a;
  obs::HistogramSnapshot b;
  for (int i = 1; i <= 50; ++i) a.record(1e-3 * i);
  for (int i = 51; i <= 100; ++i) b.record(1e-3 * i);
  obs::HistogramSnapshot all;
  for (int i = 1; i <= 100; ++i) all.record(1e-3 * i);

  obs::HistogramSnapshot empty;
  empty += a;  // an empty histogram takes the other's extremes
  EXPECT_DOUBLE_EQ(empty.min, a.min);
  a += b;
  a += obs::HistogramSnapshot{};  // merging an empty one changes nothing
  EXPECT_EQ(a.count, all.count);
  EXPECT_DOUBLE_EQ(a.sum, all.sum);
  EXPECT_DOUBLE_EQ(a.min, all.min);
  EXPECT_DOUBLE_EQ(a.max, all.max);
  for (const double p : {0.1, 0.5, 0.95}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p));
  }
}

// ---------------------------------------------------------------------------
// Legacy-instrument equivalence: the unified snapshot must reproduce
// PhaseScope / TrafficLedger / ServeCounters numbers.
// ---------------------------------------------------------------------------

TEST(Equivalence, PhaseScopeAddsIntoRegistryGauge) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset("phase/");
  obs::Gauge& g = reg.gauge("phase/testphase_seconds");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  {
    PhaseScope scope("testphase");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double first = g.value();
  EXPECT_GE(first, 0.002);
  {
    PhaseScope scope("testphase");  // accumulates, never overwrites
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(g.value(), first + 0.001);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("phase/testphase_seconds"), g.value());
  reg.reset("phase/");
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Equivalence, CommRegistryMirrorsTrafficLedger) {
  // Every collective family, the Int8 codec on a ring and on a sharded
  // push, on both backends: the "comm/..." mirror must carry exactly
  // the sum (or, for peaks, the max) of the per-rank ledgers.
  for (const CommBackend backend :
       {CommBackend::SharedMem, CommBackend::Socket}) {
    SCOPED_TRACE(backend == CommBackend::Socket ? "Socket" : "SharedMem");
    auto& reg = obs::MetricsRegistry::global();
    reg.reset("comm/");
    CommWorld::Options opts;
    opts.backend = backend;
    CommWorld world(4, opts);
    world.run([&](Communicator& comm) {
      const int r = comm.rank();
      std::vector<float> grads(1000, 1.0f);
      comm.allreduce_sum(std::span<float>(grads));
      std::vector<Half> half_grads(512);
      comm.allreduce_sum(std::span<Half>(half_grads));
      std::vector<float> rs(1001, 0.5f);
      comm.reduce_scatter_sum(std::span<float>(rs));
      std::vector<Half> half_rs(301);
      comm.reduce_scatter_sum(std::span<Half>(half_rs));
      comm.allgather_chunks(std::span<float>(rs));
      std::vector<float> votes(17, static_cast<float>(r));
      comm.allreduce_max(std::span<float>(votes));
      {
        WireCodecScope coded(comm, WireCodec::Int8);
        std::vector<float> coded_grads(777, 0.25f);
        comm.allreduce_sum(std::span<float>(coded_grads));
      }
      std::vector<std::byte> local(64, std::byte{1});
      std::vector<std::byte> out(64 * 4);
      comm.allgather_bytes(local, out);
      std::vector<std::byte> vlocal(static_cast<std::size_t>(8 * (r + 1)),
                                    std::byte{2});
      std::vector<std::byte> vout;
      std::vector<std::size_t> counts;
      comm.allgatherv_bytes(vlocal, vout, counts);
      std::vector<std::size_t> send_counts(4);
      for (std::size_t d = 0; d < send_counts.size(); ++d) {
        send_counts[d] = 16 * (d + 1) + static_cast<std::size_t>(r);
      }
      std::vector<std::byte> send(
          std::accumulate(send_counts.begin(), send_counts.end(),
                          std::size_t{0}),
          std::byte{4});
      std::vector<std::byte> recv;
      std::vector<std::size_t> recv_counts;
      comm.alltoallv_bytes(send, send_counts, recv, recv_counts);
      std::vector<std::byte> bc(256, std::byte{3});
      comm.broadcast_bytes(bc, 0);
      comm.barrier();

      // A sharded push under Int8: coded row blocks over alltoallv.
      const Index vocab = 29;
      const Index dim = 6;
      ExchangeOptions xopts;
      xopts.codec = WireCodec::Int8;
      ShardedEmbeddingExchange ex(vocab, dim, xopts);
      std::vector<Index> ids;
      for (Index i = 0; i < 20; ++i) ids.push_back((i * 7 + r) % vocab);
      Tensor delta({static_cast<Index>(ids.size()), dim});
      for (std::size_t i = 0; i < delta.data().size(); ++i) {
        delta.data()[i] = static_cast<float>(i % 13) * 0.125f;
      }
      std::vector<Index> out_ids;
      Tensor out_rows;
      ex.exchange(comm, ids, delta, out_ids, out_rows);
    });

    const TrafficLedger total = world.total_ledger();
    const auto snap = reg.snapshot();
    const auto counter = [&](const char* name) {
      return snap.counters.at(std::string("comm/") + name);
    };
    const auto gauge = [&](const char* name) {
      return snap.gauges.at(std::string("comm/") + name);
    };
    EXPECT_EQ(counter("bytes_sent"), total.bytes_sent);
    EXPECT_EQ(counter("bytes_received"), total.bytes_received);
    EXPECT_EQ(counter("allreduce_calls"), total.allreduce_calls);
    EXPECT_EQ(counter("reduce_scatter_calls"), total.reduce_scatter_calls);
    EXPECT_EQ(counter("allgather_calls"), total.allgather_calls);
    EXPECT_EQ(counter("alltoall_calls"), total.alltoall_calls);
    EXPECT_EQ(counter("broadcast_calls"), total.broadcast_calls);
    EXPECT_EQ(counter("barrier_calls"), total.barrier_calls);
    EXPECT_EQ(counter("wire_bytes_sent"), total.wire_bytes_sent);
    EXPECT_EQ(counter("wire_bytes_received"), total.wire_bytes_received);
    EXPECT_EQ(counter("codec_logical_bytes"), total.codec.logical_bytes);
    EXPECT_EQ(counter("codec_wire_bytes"), total.codec.wire_bytes);
    EXPECT_DOUBLE_EQ(gauge("max_collective_scratch_bytes"),
                     static_cast<double>(total.max_collective_scratch_bytes));
    EXPECT_DOUBLE_EQ(gauge("max_allreduce_payload_bytes"),
                     static_cast<double>(total.max_allreduce_payload_bytes));
    EXPECT_DOUBLE_EQ(
        gauge("max_reduce_scatter_payload_bytes"),
        static_cast<double>(total.max_reduce_scatter_payload_bytes));
    EXPECT_DOUBLE_EQ(gauge("max_allgather_payload_bytes"),
                     static_cast<double>(total.max_allgather_payload_bytes));
    EXPECT_DOUBLE_EQ(gauge("max_alltoall_payload_bytes"),
                     static_cast<double>(total.max_alltoall_payload_bytes));
    EXPECT_DOUBLE_EQ(gauge("max_broadcast_payload_bytes"),
                     static_cast<double>(total.max_broadcast_payload_bytes));
    // CAS adds from 4 ranks land in nondeterministic order: tolerance.
    EXPECT_NEAR(gauge("simulated_seconds"), total.simulated_comm_seconds,
                1e-12 + 1e-9 * total.simulated_comm_seconds);
    EXPECT_NEAR(gauge("real_seconds"), total.real_comm_seconds,
                1e-12 + 1e-9 * total.real_comm_seconds);
    // The ratio gauge holds the most recent coded payload's compression.
    EXPECT_GT(gauge("compression_ratio"), 1.0);

    // Every family ran, and the peaks carry the known values.
    EXPECT_GE(total.allreduce_calls, 4u * 4u);
    EXPECT_GE(total.reduce_scatter_calls, 4u * 2u);
    EXPECT_EQ(total.max_allreduce_payload_bytes, 1000u * sizeof(float));
    EXPECT_EQ(total.max_reduce_scatter_payload_bytes, 1001u * sizeof(float));
    EXPECT_EQ(total.max_allgather_payload_bytes, 251u * sizeof(float));
    EXPECT_EQ(total.max_broadcast_payload_bytes, 256u);
    EXPECT_GT(total.alltoall_calls, 4u);
    EXPECT_GT(total.codec.wire_bytes, 0u);
    EXPECT_GT(total.wire_bytes_sent, 0u);
  }
}

TEST(Equivalence, LedgerToJsonCarriesEveryField) {
  TrafficLedger led;
  led.bytes_sent = 11;
  led.bytes_received = 22;
  led.allreduce_calls = 3;
  led.allgather_calls = 4;
  led.broadcast_calls = 5;
  led.barrier_calls = 6;
  led.max_collective_scratch_bytes = 777;
  led.max_allreduce_payload_bytes = 100;
  led.max_allgather_payload_bytes = 200;
  led.max_broadcast_payload_bytes = 300;
  led.simulated_comm_seconds = 1.25;
  const std::string json = led.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"bytes_sent\":11"), std::string::npos);
  EXPECT_NE(json.find("\"max_allreduce_payload_bytes\":100"),
            std::string::npos);
  EXPECT_NE(json.find("\"max_allgather_payload_bytes\":200"),
            std::string::npos);
  EXPECT_NE(json.find("\"max_broadcast_payload_bytes\":300"),
            std::string::npos);
  EXPECT_NE(json.find("\"simulated_comm_seconds\":1.25"), std::string::npos);

  TrafficLedger other;
  other.max_allreduce_payload_bytes = 50;   // below: keeps 100
  other.max_allgather_payload_bytes = 900;  // above: takes 900
  led += other;
  EXPECT_EQ(led.max_allreduce_payload_bytes, 100u);
  EXPECT_EQ(led.max_allgather_payload_bytes, 900u);
}

TEST(Equivalence, ServeRegistryMirrorsServeCounters) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset("serve/");

  CharLmConfig cfg;
  cfg.vocab = 40;
  cfg.embed_dim = 8;
  cfg.hidden_dim = 16;
  cfg.depth = 1;
  cfg.seed = 3;
  CharLm model(cfg);
  serve::ServeOptions opts;
  opts.max_batch = 2;
  opts.queue_depth = 8;
  opts.cache_capacity = 4;
  serve::Server server(model, opts);
  server.start();

  GenerateOptions gen;
  gen.max_context = 32;
  std::vector<std::uint64_t> ids;
  for (std::size_t s = 0; s < 4; ++s) {
    serve::Request req;
    req.session_id = s + 1;
    req.context = {static_cast<Index>(1 + s), 2};
    req.new_tokens = 5;
    req.options = gen;
    req.seed = 10 + s;
    const serve::Admission adm = server.submit(std::move(req));
    ASSERT_TRUE(adm.accepted);
    ids.push_back(adm.request_id);
  }
  for (const std::uint64_t id : ids) server.wait(id);
  const serve::ServeCounters c = server.counters();
  server.stop();

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("serve/requests_admitted"),
            c.requests_admitted);
  EXPECT_EQ(snap.counters.at("serve/requests_completed"),
            c.requests_completed);
  EXPECT_EQ(snap.counters.at("serve/batch_steps"), c.batch_steps);
  EXPECT_EQ(snap.counters.at("serve/batched_streams"), c.batched_streams);
  EXPECT_EQ(snap.counters.at("serve/tokens_generated"), c.tokens_generated);
  EXPECT_EQ(snap.counters.at("serve/cache_hits"), c.cache_hits);
  EXPECT_EQ(snap.counters.at("serve/cache_misses"), c.cache_misses);

  // Satellite: queue instrumentation.  Every admitted request passed
  // through the admission queue exactly once, and the registry mirror
  // records the same observations as the legacy histogram.
  EXPECT_EQ(c.queue_latency.count, c.requests_admitted);
  const auto& qh = snap.histograms.at("serve/queue_seconds");
  EXPECT_EQ(qh.count, c.queue_latency.count);
  EXPECT_DOUBLE_EQ(qh.percentile(0.5), c.queue_latency.percentile(0.5));
  EXPECT_DOUBLE_EQ(qh.percentile(0.95), c.queue_latency.percentile(0.95));
  EXPECT_EQ(c.queue_depth, 0u);  // drained
}

// ---------------------------------------------------------------------------
// End-to-end trainer trace smoke: phases and collectives land on the
// right rank lanes.
// ---------------------------------------------------------------------------

TEST(TrainerTrace, StepPhasesAppearOnRankLanes) {
  SKIP_WITHOUT_TRACE();
  TraceGuard guard;
  const BigramCorpus corpus(50, 8, 11);
  const auto train = corpus.generate(4'000, 0);
  const auto valid = corpus.generate(1'000, 1);

  CommWorld world(2);
  TrainerOptions opt;
  opt.batch = BatchSpec{2, 8};
  opt.use_adam = true;
  opt.base_lr = 1e-3f;
  opt.charge_static_memory = false;
  opt.metrics_every = 8;
  std::atomic<int> sink_calls{0};
  opt.metrics_sink = [&](std::uint64_t) { sink_calls.fetch_add(1); };
  DistributedTrainer trainer(
      world,
      [](int) -> std::unique_ptr<LmModel> {
        CharLmConfig cfg;
        cfg.vocab = 50;
        cfg.embed_dim = 8;
        cfg.hidden_dim = 16;
        cfg.depth = 1;
        cfg.seed = 5;
        return std::make_unique<CharLm>(cfg);
      },
      opt);
  const EpochStats stats = trainer.run_epoch(train, valid, 0);
  ASSERT_GT(stats.steps, 0u);
  EXPECT_GT(sink_calls.load(), 0);

  const std::string json = export_trace();
  EXPECT_TRUE(JsonChecker(json).valid());
  for (int r = 0; r < 2; ++r) {
    const int tid = lane_tid(json, "rank " + std::to_string(r));
    ASSERT_GE(tid, 0) << "missing rank lane " << r;
    for (const char* phase :
         {"train_step", "forward", "backward", "exchange", "optimizer",
          "allreduce_f32"}) {
      EXPECT_TRUE(event_on_lane(json, phase, tid))
          << phase << " missing on rank " << r;
    }
  }

  // The per-step metrics flowed into the registry.
  const auto snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_GE(snap.counters.at("train/steps"), stats.steps * 2);
  EXPECT_GT(snap.counters.at("train/tokens"), 0u);
  EXPECT_GT(snap.gauges.at("train/tokens_per_s"), 0.0);
}
