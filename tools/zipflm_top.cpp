// zipflm_top — live per-shard introspection of a running serve world.
//
// Joins a serve socket world as one more client rank and polls the
// frontend's Stats frame (serve/wire.hpp), which ships the server
// process's metrics registry.  Successive snapshots are diffed into
// rates and window percentiles — qps and p50/p95/p99 describe the
// interval between polls, not the process lifetime — and rendered as
// one table per poll: a row per shard plus the fleet aggregate.
//
//   zipflm_top <address> --rank R --world N [--server-rank 0]
//              [--interval seconds] [--count N] [--scope serve]
//
// joins the rendezvous world the frontend was launched in (the polling
// rank must be one of the world's client ranks).  --count 0 polls until
// killed.
//
//   zipflm_top --selftest
//
// runs the whole loop in one process — a 2-shard ShardedServer behind a
// SocketFrontend on a 3-endpoint socketpair mesh, one load rank, one
// top rank — and exits nonzero unless per-shard rows surface live
// traffic.  CI's smoke for the introspection path.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "zipflm/nn/lm_model.hpp"
#include "zipflm/obs/metrics.hpp"
#include "zipflm/net/socket.hpp"
#include "zipflm/serve/serve_client.hpp"
#include "zipflm/serve/sharded_server.hpp"
#include "zipflm/serve/socket_frontend.hpp"
#include "zipflm/support/stopwatch.hpp"

namespace {

using namespace zipflm;

std::uint64_t counter_or_zero(const obs::MetricsSnapshot& snap,
                              const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double gauge_or_zero(const obs::MetricsSnapshot& snap,
                     const std::string& name) {
  const auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0.0 : it->second;
}

/// Shard indices present in the snapshot: every k with a
/// "<scope>/s<k>/request_seconds" histogram.
std::vector<std::size_t> discover_shards(const obs::MetricsSnapshot& snap,
                                         const std::string& scope) {
  std::vector<std::size_t> shards;
  const std::string prefix = scope + "/s";
  const std::string suffix = "/request_seconds";
  for (const auto& [name, hist] : snap.histograms) {
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
      continue;
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    shards.push_back(static_cast<std::size_t>(
        std::strtoull(digits.c_str(), nullptr, 10)));
  }
  return shards;
}

/// One row of the table, computed from the window between two polls.
struct Row {
  double qps = 0.0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double queue_depth = 0.0;
  std::uint64_t window_count = 0;
  std::uint64_t done_evictions = 0;  ///< delta over the window
};

Row window_row(const obs::MetricsSnapshot& now,
               const obs::MetricsSnapshot& prev, bool have_prev,
               const std::string& base, double dt_seconds) {
  Row row;
  const std::uint64_t completed_now =
      counter_or_zero(now, base + "/requests_completed");
  const std::uint64_t completed_prev =
      have_prev ? counter_or_zero(prev, base + "/requests_completed") : 0;
  if (dt_seconds > 0) {
    row.qps = static_cast<double>(completed_now - completed_prev) / dt_seconds;
  }
  row.done_evictions =
      counter_or_zero(now, base + "/done_evictions") -
      (have_prev ? counter_or_zero(prev, base + "/done_evictions") : 0);
  row.queue_depth = gauge_or_zero(now, base + "/queue_depth");

  const auto hit = now.histograms.find(base + "/request_seconds");
  if (hit != now.histograms.end()) {
    obs::HistogramSnapshot window = hit->second;
    if (have_prev) {
      const auto pit = prev.histograms.find(hit->first);
      if (pit != prev.histograms.end()) window = hit->second.since(pit->second);
    }
    row.window_count = window.count;
    if (window.count > 0) {
      row.p50_ms = window.percentile(0.50) * 1e3;
      row.p95_ms = window.percentile(0.95) * 1e3;
      row.p99_ms = window.percentile(0.99) * 1e3;
    }
  }
  return row;
}

void print_row(const char* label, const Row& row) {
  std::printf("%-6s %9.1f %8.2f %8.2f %8.2f %7.0f %9" PRIu64 " %8" PRIu64
              "\n",
              label, row.qps, row.p50_ms, row.p95_ms, row.p99_ms,
              row.queue_depth, row.window_count, row.done_evictions);
}

/// One poll cycle: fetch, diff against `prev`, render.  Returns the
/// fleet-aggregate row so callers can assert on it.
Row poll_once(serve::ServeClient& client, const std::string& scope,
              obs::MetricsSnapshot& prev, bool& have_prev, double dt_seconds,
              std::uint64_t poll_index) {
  const obs::MetricsSnapshot snap = client.stats(scope.empty() ? "" : scope);

  std::printf("\nzipflm_top  scope=%s  poll %" PRIu64 "  window %.2fs\n",
              scope.c_str(), poll_index, have_prev ? dt_seconds : 0.0);
  std::printf("%-6s %9s %8s %8s %8s %7s %9s %8s\n", "shard", "qps", "p50ms",
              "p95ms", "p99ms", "queue", "reqs", "evict");

  for (const std::size_t k : discover_shards(snap, scope)) {
    const std::string base = scope + "/s" + std::to_string(k);
    const Row row = window_row(snap, prev, have_prev, base, dt_seconds);
    const std::string label = std::string("s").append(std::to_string(k));
    print_row(label.c_str(), row);
  }

  const Row total = window_row(snap, prev, have_prev, scope, dt_seconds);
  print_row("all", total);

  const std::uint64_t steals_now = counter_or_zero(snap, scope + "/steals");
  const std::uint64_t steals_prev =
      have_prev ? counter_or_zero(prev, scope + "/steals") : 0;
  const std::uint64_t rejected_now =
      counter_or_zero(snap, scope + "/requests_rejected");
  const std::uint64_t rejected_prev =
      have_prev ? counter_or_zero(prev, scope + "/requests_rejected") : 0;
  std::printf("steals +%" PRIu64 "  rejected +%" PRIu64 "\n",
              steals_now - steals_prev, rejected_now - rejected_prev);

  prev = snap;
  have_prev = true;
  return total;
}

int run_poll_loop(serve::ServeClient& client, const std::string& scope,
                  double interval_seconds, std::uint64_t count) {
  obs::MetricsSnapshot prev;
  bool have_prev = false;
  Stopwatch watch;
  for (std::uint64_t poll = 0; count == 0 || poll < count; ++poll) {
    if (poll != 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(interval_seconds));
    }
    const double dt = watch.seconds();
    watch.reset();
    poll_once(client, scope, prev, have_prev, dt, poll);
    std::fflush(stdout);
  }
  return 0;
}

// ---- selftest -------------------------------------------------------

int selftest() {
  CharLmConfig cfg;
  cfg.embed_dim = 16;
  cfg.hidden_dim = 32;
  cfg.depth = 1;
  std::vector<std::unique_ptr<CharLm>> replicas;
  std::vector<LmModel*> models;
  for (int k = 0; k < 2; ++k) {
    replicas.push_back(std::make_unique<CharLm>(cfg));
    models.push_back(replicas.back().get());
  }
  serve::ShardedServeOptions opts;
  serve::ShardedServer server(models, opts);
  server.start();

  auto world = net::socketpair_mesh(3);
  serve::SocketFrontend frontend(*world[0], server);
  std::thread frontend_thread([&] { frontend.run(); });

  // Load rank: enough sessions that SplitMix64 lands on both shards.
  std::thread load_thread([&] {
    serve::ServeClient client(*world[1], /*server_rank=*/0);
    for (std::uint64_t round = 0; round < 4; ++round) {
      std::vector<std::uint64_t> ids;
      for (std::uint64_t s = 1; s <= 12; ++s) {
        serve::Request req;
        req.session_id = s;
        req.context = {static_cast<Index>(1 + s % 7), 2, 3};
        req.new_tokens = 4;
        req.seed = 100 + round * 100 + s;
        const serve::Admission a = client.submit(req);
        if (a.accepted) ids.push_back(a.request_id);
      }
      for (const std::uint64_t id : ids) (void)client.wait(id);
    }
    client.bye();
  });

  // Top rank: poll while the load runs, then once after it drained.
  int failures = 0;
  {
    serve::ServeClient top(*world[2], /*server_rank=*/0);
    obs::MetricsSnapshot prev;
    bool have_prev = false;
    Stopwatch watch;
    for (int poll = 0; poll < 3; ++poll) {
      if (poll == 2) load_thread.join();  // final poll sees all traffic
      const double dt = watch.seconds();
      watch.reset();
      poll_once(top, "serve", prev, have_prev, dt, poll);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }

    // The last snapshot must expose both shards and a fleet aggregate
    // consistent with them — the parity the Stats frame promises.
    const auto shards = discover_shards(prev, "serve");
    if (shards.size() != 2) {
      std::fprintf(stderr, "selftest: expected 2 shards, saw %zu\n",
                   shards.size());
      ++failures;
    }
    std::uint64_t per_shard_total = 0;
    for (const std::size_t k : shards) {
      per_shard_total += counter_or_zero(
          prev, "serve/s" + std::to_string(k) + "/requests_completed");
    }
    const std::uint64_t aggregate =
        counter_or_zero(prev, "serve/requests_completed");
    if (aggregate != 4 * 12 || per_shard_total != aggregate) {
      std::fprintf(stderr,
                   "selftest: aggregate %" PRIu64 " vs per-shard %" PRIu64
                   " (want 48)\n",
                   aggregate, per_shard_total);
      ++failures;
    }
    top.bye();
  }

  frontend_thread.join();
  server.stop();
  if (failures == 0) std::printf("\nzipflm_top selftest OK\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string address;
  std::string scope = "serve";
  int rank = -1, world = -1, server_rank = 0;
  double interval = 1.0;
  std::uint64_t count = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--selftest") return selftest();
    if (arg == "--rank") rank = std::atoi(next());
    else if (arg == "--world") world = std::atoi(next());
    else if (arg == "--server-rank") server_rank = std::atoi(next());
    else if (arg == "--interval") interval = std::strtod(next(), nullptr);
    else if (arg == "--count") count = std::strtoull(next(), nullptr, 10);
    else if (arg == "--scope") scope = next();
    else if (!arg.empty() && arg[0] != '-' && address.empty()) address = arg;
    else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (address.empty() || rank < 0 || world < 2) {
    std::fprintf(stderr,
                 "usage: zipflm_top <address> --rank R --world N "
                 "[--server-rank 0] [--interval 1.0] [--count 0] "
                 "[--scope serve]\n"
                 "       zipflm_top --selftest\n");
    return 2;
  }

  auto transport = net::rendezvous(address, rank, world);
  serve::ServeClient client(*transport, server_rank);
  const int code = run_poll_loop(client, scope, interval, count);
  client.bye();
  return code;
}
