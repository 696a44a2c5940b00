// End-to-end training-step throughput on the seed CharLm configuration
// (RHN 1792 x depth 10, vocab 98), with the per-phase breakdown that
// decides where optimization effort goes: forward, backward, embedding
// exchange, optimizer.
//
// Every rank runs the library's training step, core::RankStep, built
// from a TrainerOptions — the step DistributedTrainer runs.  The bench
// adds only the warmup barrier, timing, the loss and weight hashes and
// the oracle comparisons.
//
// Default world size is 1 (the *local* per-step cost — kernels + local
// reduce + scatter + Adam, the paper's Θ(G·K + U_g·D) constant factor);
// --gpus N runs N simulated ranks through the full wire path with the
// overlapped bucketed dense exchange (--overlap off for the synchronous
// path: the same buckets, run inline after backward).  Throughput is
// aggregate: tokens_per_rank x ranks.  FP16 wire precision is kept on
// so the compression-scaling casts stay in the measured path.  The
// phase columns (forward, backward, exchange, optimizer) are per rank,
// read from the PhaseScope gauges: a socket child's own, or the thread
// world's divided by N.
//
// --transport selects how the ranks are realized:
//
//   thread  (default)  N threads of this process over CommWorld's
//                      default in-process transport — the seed behavior.
//   socket             N forked OS processes that rendezvous over UNIX
//                      sockets (ProcessGroup / zipflm::net) and train
//                      over the real wire.  The parent first runs the
//                      thread world as a reference, then asserts the
//                      socket world's per-rank losses and final weights
//                      are BITWISE identical to it — the bench doubles
//                      as the multi-process equivalence gate (exit 1 on
//                      any divergence).
//
// --codec raw|int8 arms the gradient wire codec.  int8 is deterministic
// across engines, so the socket world must stay bitwise equal to the
// thread reference under it too.  The
// RESULT record carries the codec and the bytes that actually crossed
// the wire (socket: measured from the transports; thread: the ledger's
// modelled wire volume).
//
// --shard-embedding row-shards the input table: rank r owns rows
// [r*V/G, (r+1)*V/G) and the worlds train through the alltoallv
// pull/push exchange instead of the replicated allreduce.  An extra
// all-replicated thread world runs first as the oracle; the sharded
// worlds' per-rank loss streams and ASSEMBLED-table weight hashes must
// be bitwise equal to it (exit 1 otherwise), on top of the usual
// socket-vs-thread gate.  FP32 wire is forced (the sharded fold is only
// bitwise-equal to the replicated ring under lossless payloads), and
// int8 is rejected for the same reason.
//
// Emits one line of JSON (prefixed "RESULT ") so harnesses can scrape a
// single machine-readable record; record the trajectory in
// BENCH_train_step.json.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "zipflm/comm/process_group.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/core/rank_step.hpp"
#include "zipflm/data/batch.hpp"
#include "zipflm/net/telemetry.hpp"
#include "zipflm/nn/lm_model.hpp"
#include "zipflm/obs/metrics.hpp"
#include "zipflm/obs/telemetry.hpp"
#include "zipflm/obs/trace.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/support/stopwatch.hpp"
#include "zipflm/tensor/simd.hpp"

#include "bench_common.hpp"

namespace {

using namespace zipflm;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Seconds accumulated under PhaseScope(name) since the last
/// reset("phase/"): the registry gauge perfbench reads too.
double phase_seconds(const char* name) {
  return obs::MetricsRegistry::global()
      .gauge(std::string("phase/") + name + "_seconds")
      .value();
}

/// The host a RESULT row is comparable within, as a JSON object: core
/// count, CPU model, the ISA the kernels dispatch to, and build type.
/// scripts/bench_regression.sh gates only against rows whose host
/// object matches exactly.
std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) {
      continue;
    }
    const auto begin = line.find_first_not_of(' ', colon + 1);
    if (begin != std::string::npos) cpu = line.substr(begin);
    break;
  }
  std::erase_if(cpu, [](char c) { return c == '"' || c == '\\'; });
  std::string isa = "scalar";
  if (simd::active_backend() == simd::Backend::kNative) {
    isa = simd::native_isa();
#if defined(__F16C__)
    isa += "+f16c";
#endif
  }
  std::string json = "{\"cores\":";
  json += std::to_string(std::thread::hardware_concurrency());
  json += ",\"cpu_model\":\"" + cpu + "\",\"isa\":\"" + isa;
  json += "\",\"build_type\":\"" ZIPFLM_BUILD_TYPE "\"}";
  return json;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x00000100000001b3ull;
  }
  return h;
}

/// Digest of everything training mutates: dense parameter values plus
/// the sparse-exchanged input embedding.  Two runs that agree here (and
/// on the per-step loss stream) took bitwise the same trajectory.
/// Sharded models hash the ASSEMBLED table — every rank allgathers the
/// shard slices in rank order, which reproduces the replicated V x D
/// byte layout exactly — so a sharded rank's digest is directly
/// comparable to a replicated rank's.
std::uint64_t hash_weights(LmModel& model, Communicator& comm) {
  std::uint64_t h = kFnvOffset;
  for (const Param* p : model.dense_params()) {
    h = fnv1a(p->value.data().data(), p->value.bytes(), h);
  }
  if (ShardedEmbedding* se = model.sharded_input(); se != nullptr) {
    const Tensor& shard = se->param().value;
    std::vector<std::byte> full;
    std::vector<std::size_t> counts;
    comm.allgatherv_bytes(
        std::as_bytes(std::span<const float>(shard.data().data(),
                                             shard.data().size())),
        full, counts);
    return fnv1a(full.data(), full.size(), h);
  }
  const Param& emb = model.input_embedding_param();
  return fnv1a(emb.value.data().data(), emb.value.bytes(), h);
}

/// One rank's training outcome.  Plain old data so a forked socket
/// child can ship it back to the parent over a pipe verbatim.
struct RankReport {
  std::uint64_t weights_hash = 0;  ///< final dense + embedding values
  std::uint64_t loss_hash = 0;     ///< FNV over every step's loss bits
  double loss_sum = 0.0;
  double measured_seconds = 0.0;   ///< post-warmup wall time
  /// This process's phase gauges over the measured steps: one rank's
  /// in a socket child, every rank's summed in the thread world.
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  double exchange_seconds = 0.0;
  double optimizer_seconds = 0.0;
  std::uint64_t unique_rows = 0;
  std::uint64_t wire_bytes_sent = 0;  ///< socket children only
};

/// Everything both worlds share; one parse of argv.
struct BenchConfig {
  CharLmConfig cfg;  // seed defaults: vocab 98, RHN 1792 x depth 10
  /// The step every rank runs: Adam at its default rate with clip 1,
  /// the overlapped exchange, FP16 wire unless --wire fp32.
  TrainerOptions options = [] {
    TrainerOptions o;
    o.use_adam = true;
    o.base_lr = Adam::Config{}.lr;
    o.clip = 1.0f;
    o.wire = WirePrecision::FP16;
    o.overlapped_exchange = true;
    // The bench measures this host, not the simulated card's budget.
    o.charge_static_memory = false;
    return o;
  }();
  int gpus = 1;
  std::size_t warmup_steps = 1;
  std::size_t measured_steps = 3;
  /// Chrome trace output ("" = tracing off).  Socket mode collects every
  /// child's lanes over the training transport after the final barrier
  /// and writes one clock-aligned merged document.
  std::string trace_path;

  std::size_t total_steps() const { return warmup_steps + measured_steps; }

  /// Rank r's model config: the shared seed config, sharded over the
  /// world when --shard-embedding is armed.
  CharLmConfig rank_cfg(int rank) const {
    CharLmConfig c = cfg;
    if (options.shard_embedding) {
      c.shard_rank = rank;
      c.shard_world = gpus;
    }
    return c;
  }
};

/// One rank of either world — the communicator is the only thing that
/// differs between a CommWorld thread and a ProcessGroup process.
/// Builds the rank's RankStep (identical seeds give every world
/// identical replicas), runs the warmup and measured steps, and hashes
/// the losses and final weights.
RankReport run_rank(Communicator& comm, const BenchConfig& bc,
                    const std::vector<Index>& ids) {
  const int r = comm.rank();
  RankStep rank(bc.options, std::make_unique<CharLm>(bc.rank_cfg(r)), r,
                comm.world_size());
  RankReport rep;
  rep.loss_hash = kFnvOffset;
  Stopwatch step_watch;
  {
    RankStep::Session session(rank, comm);
    BatchIterator it(ids, bc.options.batch, r, comm.world_size());
    Batch batch;
    for (std::size_t step = 0; step < bc.total_steps(); ++step) {
      if (step == bc.warmup_steps) {
        // Every rank finishes warmup before rank 0 zeroes the phase
        // gauges (shared by the thread world), and none measures before.
        comm.barrier();
        if (r == 0) obs::MetricsRegistry::global().reset("phase/");
        comm.barrier();
        step_watch.reset();
      }
      if (!it.next(batch)) {
        std::fprintf(stderr, "corpus exhausted early\n");
        std::abort();
      }
      const RankStep::Outcome out = session.step(batch, step);
      rep.loss_hash = fnv1a(&out.loss, sizeof(out.loss), rep.loss_hash);
      rep.loss_sum += static_cast<double>(out.loss);
      rep.unique_rows = out.unique_rows;
    }
  }
  comm.barrier();
  rep.measured_seconds = step_watch.seconds();
  rep.forward_seconds = phase_seconds("forward");
  rep.backward_seconds = phase_seconds("backward");
  rep.exchange_seconds = phase_seconds("exchange");
  rep.optimizer_seconds = phase_seconds("optimizer");
  rep.weights_hash = hash_weights(rank.model(), comm);
  return rep;
}

/// N threads of this process over CommWorld (the seed path), one
/// replica per simulated GPU: the wire path (bucketed dense allreduce +
/// unique embedding exchange) is in the measured loop, so --gpus 4
/// reports what overlap actually hides.
std::vector<RankReport> run_thread_world(const BenchConfig& bc,
                                         const std::vector<Index>& ids,
                                         std::uint64_t* wire_model_out) {
  CommWorld world(bc.gpus);
  std::vector<RankReport> reports(static_cast<std::size_t>(bc.gpus));
  world.run([&](Communicator& comm) {
    reports[static_cast<std::size_t>(comm.rank())] = run_rank(comm, bc, ids);
  });
  if (wire_model_out != nullptr) {
    // The wire volume in the ledger's closed form: logical traffic with
    // the coded gradient legs' logical bytes swapped for their encoded
    // bytes (no collective headers, unlike the measured wire bytes).
    const auto total = world.total_ledger();
    *wire_model_out =
        total.bytes_sent - total.codec.logical_bytes + total.codec.wire_bytes;
  }
  return reports;
}

/// Compares two worlds rank by rank: loss streams and final weights
/// must be bitwise equal.  Prints every diverging rank to stderr.
bool same_trajectories(const std::vector<RankReport>& want,
                       const std::vector<RankReport>& got, const char* what) {
  bool same = true;
  for (std::size_t r = 0; r < want.size(); ++r) {
    const RankReport& w = want[r];
    const RankReport& g = got[r];
    if (w.weights_hash == g.weights_hash && w.loss_hash == g.loss_hash) {
      continue;
    }
    std::fprintf(stderr,
                 "rank %zu diverged from %s: weights %016llx vs %016llx, "
                 "losses %016llx vs %016llx\n",
                 r, what, static_cast<unsigned long long>(w.weights_hash),
                 static_cast<unsigned long long>(g.weights_hash),
                 static_cast<unsigned long long>(w.loss_hash),
                 static_cast<unsigned long long>(g.loss_hash));
    same = false;
  }
  return same;
}

bool read_full(int fd, void* out, std::size_t n) {
  auto* p = static_cast<unsigned char*>(out);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // child died before reporting
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_full(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

/// One forked rank of the socket world: rendezvous, train, and ship
/// the report up the pipe.
int run_socket_child(int rank, const std::string& rendezvous,
                     const BenchConfig& bc, const std::vector<Index>& ids,
                     int pipe_fd) {
  const bool traced = !bc.trace_path.empty();
  if (traced) {
    // Fresh per-process timeline: the lane registrations inherited from
    // the parent's (untraced) thread world are empty and stay so.
    obs::trace_clear();
    obs::set_process_label("rank " + std::to_string(rank));
    obs::set_thread_lane("rank " + std::to_string(rank), rank);
    obs::trace_enable(true);
  }

  ProcessGroup::Options opt;
  opt.collective_timeout_seconds = 300.0;
  auto pg = ProcessGroup::connect(rendezvous, rank, bc.gpus, opt);

  RankReport rep = run_rank(pg->comm(), bc, ids);
  rep.wire_bytes_sent = pg->ledger().wire_bytes_sent;

  if (traced) {
    // run_rank ends on a barrier, so the training transport is quiet —
    // reuse it as the telemetry plane.  Rank 0 plays collector: its own
    // lanes at offset 0, every peer's shipped over the wire with an
    // NTP-style offset estimate, one merged clock-aligned document.
    obs::trace_enable(false);
    if (rank == 0) {
      std::vector<obs::ProcessTrace> traces;
      obs::ProcessTrace self;
      self.label = obs::process_label();
      self.pid = 1;
      self.lanes = obs::trace_lane_snapshot();
      traces.push_back(std::move(self));
      for (int peer = 1; peer < bc.gpus; ++peer) {
        net::telemetry::CollectOptions copt;
        copt.want_metrics = false;
        net::telemetry::WorkerTelemetry wt =
            net::telemetry::collect_from_peer(pg->transport(), peer, copt);
        wt.trace.pid = peer + 1;
        traces.push_back(std::move(wt.trace));
      }
      const obs::TraceExportStats st =
          obs::write_chrome_trace_merged_file(bc.trace_path, traces);
      std::fprintf(stderr,
                   "merged trace: %llu events across %zu lanes "
                   "(%llu dropped) -> %s\n",
                   static_cast<unsigned long long>(st.events), st.lanes,
                   static_cast<unsigned long long>(st.dropped),
                   bc.trace_path.c_str());
    } else {
      net::telemetry::serve_collector(pg->transport(), 0);
    }
  }

  if (!write_full(pipe_fd, &rep, sizeof(rep))) return 1;
  pg.reset();  // orderly endpoint close before _Exit
  return 0;
}

/// N forked OS processes over UNIX-socket rendezvous.  Returns empty on
/// any child failure (already reported to stderr).
std::vector<RankReport> run_socket_world(const BenchConfig& bc,
                                         const std::vector<Index>& ids) {
  const std::string rendezvous =
      "unix:/tmp/zipflm_bench." + std::to_string(::getpid());
  std::fflush(nullptr);  // children inherit the stdio buffers at fork
  std::vector<pid_t> pids;
  std::vector<int> read_fds;
  for (int r = 0; r < bc.gpus; ++r) {
    int fds[2];
    if (::pipe(fds) != 0) {
      std::perror("pipe");
      return {};
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return {};
    }
    if (pid == 0) {
      for (const int fd : read_fds) ::close(fd);
      ::close(fds[0]);
      int code = 1;
      try {
        code = run_socket_child(r, rendezvous, bc, ids, fds[1]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "socket rank %d failed: %s\n", r, e.what());
      }
      std::fflush(nullptr);  // _Exit skips the stdio flush
      std::_Exit(code);
    }
    ::close(fds[1]);
    pids.push_back(pid);
    read_fds.push_back(fds[0]);
  }

  std::vector<RankReport> reports(static_cast<std::size_t>(bc.gpus));
  bool ok = true;
  for (int r = 0; r < bc.gpus; ++r) {
    if (!read_full(read_fds[static_cast<std::size_t>(r)],
                   &reports[static_cast<std::size_t>(r)],
                   sizeof(RankReport))) {
      std::fprintf(stderr, "socket rank %d sent no report\n", r);
      ok = false;
    }
    ::close(read_fds[static_cast<std::size_t>(r)]);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ok = false;
    }
  }
  if (!ok) return {};
  return reports;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zipflm;

  // Positional args first (batch, seq, steps), then flags.
  std::vector<char*> positional;
  BenchConfig bc;
  bool fp16_wire = true;
  std::string transport = "thread";
  std::string codec = "raw";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--gpus" && i + 1 < argc) {
      bc.gpus = std::atoi(argv[++i]);
    } else if (arg == "--overlap" && i + 1 < argc) {
      bc.options.overlapped_exchange = std::string(argv[++i]) != "off";
    } else if (arg == "--wire" && i + 1 < argc) {
      fp16_wire = std::string(argv[++i]) != "fp32";
    } else if (arg == "--bucket-mb" && i + 1 < argc) {
      bc.options.overlap_bucket_bytes =
          static_cast<std::size_t>(std::atoi(argv[++i])) << 20;
    } else if (arg == "--transport" && i + 1 < argc) {
      transport = argv[++i];
    } else if (arg == "--shard-embedding") {
      bc.options.shard_embedding = true;
    } else if (arg == "--codec" && i + 1 < argc) {
      codec = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      bc.trace_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (transport != "thread" && transport != "socket") {
    std::fprintf(stderr, "--transport must be 'thread' or 'socket'\n");
    return 2;
  }
  if (codec != "raw" && codec != "int8") {
    std::fprintf(stderr, "--codec must be 'raw' or 'int8'\n");
    return 2;
  }
  if (bc.options.shard_embedding && codec == "int8") {
    std::fprintf(stderr,
                 "--shard-embedding keeps row payloads lossless; int8 would "
                 "diverge from the replicated oracle (use raw)\n");
    return 2;
  }
  if (bc.options.shard_embedding && fp16_wire) {
    // The sharded fold is only bitwise-equal to the replicated ring
    // under lossless payloads.
    std::printf("--shard-embedding forces --wire fp32\n");
    fp16_wire = false;
  }
  BatchSpec& spec = bc.options.batch;
  spec.batch_size =
      positional.size() > 0 ? static_cast<Index>(std::atoi(positional[0])) : 8;
  spec.seq_len =
      positional.size() > 1 ? static_cast<Index>(std::atoi(positional[1])) : 8;
  bc.measured_steps =
      positional.size() > 2 ? static_cast<std::size_t>(std::atoi(positional[2]))
                            : 3;
  bc.options.wire = fp16_wire ? WirePrecision::FP16 : WirePrecision::FP32;
  if (codec == "int8") bc.options.wire_codec = WireCodec::Int8;

  bench::print_header(
      "Training-step throughput, seed CharLm",
      "paper SIV-B char model; local step cost Θ(G·K + U_g·D)",
      "full train step: forward + backward + unique exchange + Adam");

  const std::size_t corpus =
      static_cast<std::size_t>(spec.tokens_per_rank()) *
          (bc.total_steps() + 1) * static_cast<std::size_t>(bc.gpus) +
      1;
  std::vector<Index> ids(corpus);
  Rng rng(42);
  for (auto& id : ids) {
    id = static_cast<Index>(
        rng.uniform_index(static_cast<std::uint64_t>(bc.cfg.vocab)));
  }

  // Under --shard-embedding an all-replicated thread world runs first:
  // it is the oracle the sharded worlds must reproduce bitwise (same
  // per-rank loss stream, same assembled table).
  bool shard_equal_to_replicated = true;
  std::vector<RankReport> replicated_reports;
  if (bc.options.shard_embedding) {
    BenchConfig ref = bc;
    ref.options.shard_embedding = false;
    replicated_reports = run_thread_world(ref, ids, nullptr);
  }

  // The thread world always runs — it IS the bench in thread mode, and
  // the equality reference in socket mode.  Tracing covers only the
  // world being measured: thread mode traces the thread world locally;
  // socket mode leaves the reference untraced and lets the children
  // collect the merged multi-process document.
  const bool trace_threads = !bc.trace_path.empty() && transport == "thread";
  if (trace_threads) obs::trace_enable(true);
  std::uint64_t wire_model_bytes = 0;
  const std::vector<RankReport> thread_reports =
      run_thread_world(bc, ids, &wire_model_bytes);
  if (trace_threads) {
    obs::trace_enable(false);
    const obs::TraceExportStats st =
        obs::write_chrome_trace_file(bc.trace_path);
    std::printf("trace: %llu events across %zu lanes -> %s\n",
                static_cast<unsigned long long>(st.events), st.lanes,
                bc.trace_path.c_str());
  }

  if (bc.options.shard_embedding) {
    shard_equal_to_replicated = same_trajectories(
        replicated_reports, thread_reports, "the replicated oracle");
    std::printf(
        "sharded embedding: %d-way row shard, losses/assembled weights %s "
        "the replicated oracle\n",
        bc.gpus,
        shard_equal_to_replicated ? "bitwise equal to" : "DIVERGED from");
  }

  bool equal_to_thread = true;
  std::uint64_t wire_bytes = wire_model_bytes;
  std::vector<RankReport> reports;
  if (transport == "socket") {
    reports = run_socket_world(bc, ids);
    if (reports.empty()) {
      std::fprintf(stderr, "socket world failed\n");
      return 1;
    }
    equal_to_thread =
        same_trajectories(thread_reports, reports, "the thread backend");
    wire_bytes = 0;
    for (const auto& rep : reports) wire_bytes += rep.wire_bytes_sent;
    std::printf(
        "socket transport: %d OS processes, %llu wire bytes, losses/weights "
        "%s thread backend\n",
        bc.gpus, static_cast<unsigned long long>(wire_bytes),
        equal_to_thread ? "bitwise equal to" : "DIVERGED from");
  } else {
    reports = thread_reports;
  }

  // Phase times are per rank: a socket child's gauges hold its own
  // rank, the thread world's sum all of its ranks.
  const RankReport& r0 = reports[0];
  const double per_rank =
      transport == "socket" ? 1.0 : static_cast<double>(bc.gpus);
  const double steps_d = static_cast<double>(bc.measured_steps);
  const auto phase_ms = [&](double seconds) {
    return 1e3 * seconds / per_rank / steps_d;
  };

  // Aggregate throughput: every simulated GPU processes its own
  // tokens_per_rank each step (data parallelism), so the fleet's
  // tokens/s is the per-rank rate times the world size.
  const double tokens = static_cast<double>(spec.tokens_per_rank()) *
                        steps_d * static_cast<double>(bc.gpus);
  const double tok_s = tokens / r0.measured_seconds;
  const double step_ms = 1e3 * r0.measured_seconds / steps_d;
  const double forward_ms = phase_ms(r0.forward_seconds);
  const double backward_ms = phase_ms(r0.backward_seconds);
  const double exchange_ms = phase_ms(r0.exchange_seconds);
  const double optimizer_ms = phase_ms(r0.optimizer_seconds);

  std::printf("batch %lld x seq %lld, %zu measured steps (+%zu warmup)\n",
              static_cast<long long>(spec.batch_size),
              static_cast<long long>(spec.seq_len), bc.measured_steps,
              bc.warmup_steps);
  std::printf("throughput: %8s tokens/s (%s ms/step)\n",
              bench::fmt(tok_s).c_str(), bench::fmt(step_ms).c_str());
  std::printf("  forward  : %8s ms\n", bench::fmt(forward_ms).c_str());
  std::printf("  backward : %8s ms\n", bench::fmt(backward_ms).c_str());
  std::printf("  exchange : %8s ms (U_g = %llu unique rows)\n",
              bench::fmt(exchange_ms).c_str(),
              static_cast<unsigned long long>(r0.unique_rows));
  std::printf("  optimizer: %8s ms\n", bench::fmt(optimizer_ms).c_str());

  std::printf(
      "RESULT {\"bench\":\"train_step\",\"batch\":%lld,\"seq\":%lld,"
      "\"steps\":%zu,\"gpus\":%d,\"overlap\":%s,"
      "\"transport\":\"%s\",\"processes\":%d,\"equal_to_thread\":%s,"
      "\"shard_embedding\":%s,\"shard_equal_to_replicated\":%s,"
      "\"wire_codec\":\"%s\",\"wire_bytes\":%llu,"
      "\"tokens_per_s\":%.2f,\"step_ms\":%.2f,"
      "\"forward_ms\":%.2f,\"backward_ms\":%.2f,\"exchange_ms\":%.2f,"
      "\"optimizer_ms\":%.2f,\"host\":%s}\n",
      static_cast<long long>(spec.batch_size),
      static_cast<long long>(spec.seq_len), bc.measured_steps, bc.gpus,
      bc.options.overlapped_exchange ? "true" : "false", transport.c_str(),
      transport == "socket" ? bc.gpus : 1, equal_to_thread ? "true" : "false",
      bc.options.shard_embedding ? "true" : "false",
      shard_equal_to_replicated ? "true" : "false",
      codec.c_str(), static_cast<unsigned long long>(wire_bytes),
      tok_s, step_ms, forward_ms, backward_ms, exchange_ms, optimizer_ms,
      host_json().c_str());
  return equal_to_thread && shard_equal_to_replicated ? 0 : 1;
}
