// Shared plumbing of the repository benchmark: run arguments, the result
// record every workload fills, and the statistics helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny model sizes and a short run: the benchmark's own tests.
  bool smoke = false;
  /// > 0 overrides the char workloads' Adam rate (the tests' diverging
  /// run uses it to prove the output checks catch a numerics failure).
  double adam_lr = 0.0;
  /// Chrome trace written by a traced run.
  std::string trace_path = "perfbench_trace.json";
};

/// What one run reports: the contract's counts plus every metric it
/// measured, in the order it measured them.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  /// Human-readable lines printed before the result (digests, sample
  /// counts, why a metric does not apply to this workload).
  std::vector<std::string> notes;

  void set(const std::string& name, double value);  ///< each name once
  /// Marks the run incorrect and says why on stderr.
  void fail_check(const std::string& why);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Seconds on the steady clock since an arbitrary process-wide origin.
double now_seconds();

/// Linear-interpolated quantile q in [0, 1] of raw samples (0 if empty).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// The highest quantile, at most 0.95, that leaves at least ten samples
/// above it — the tail a sample of `n` can support.  Capped at p95
/// because on a shared host a p99 moved 11-21% between identical serve
/// runs and a p95 about 1%.
double tail_quantile(std::size_t n);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Builds the set-up state several times (each build first frees the
/// previous one, so peak memory holds one copy) and returns the median
/// build time.  `state` keeps the last build.  Small set-ups repeat
/// until they have run for about a second (at most kMaxBuilds times),
/// so a millisecond set-up still reports a steady median.
template <typename State, typename Build>
double median_setup_seconds(std::unique_ptr<State>& state, Build build) {
  constexpr std::size_t kMinBuilds = 3;
  constexpr std::size_t kMaxBuilds = 200;
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < kMinBuilds ||
         (total < 1.0 && times.size() < kMaxBuilds)) {
    state.reset();
    const double start = now_seconds();
    state = build();
    times.push_back(now_seconds() - start);
    total += times.back();
  }
  return median(std::move(times));
}

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull);

Result run_train(const Args& args);
Result run_serve(const Args& args);

/// Calibration calls: gemm GFLOP/s at the models' shapes, allreduce and
/// memcpy GB/s.  Adds the tensor.* and comm.*_gbps metrics.
void calibrate(Result& result, bool smoke);

}  // namespace perfbench
