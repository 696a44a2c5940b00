// Calibration calls for the traced run: what the kernels and the
// collective engine reach in isolation, the ceilings the per-layer
// numbers are read against.
//
//   tensor.gemm_rhn_gflops   gemm at the RHN recurrence (8 x 1024 x 1024)
//   tensor.gemm_lstm_gflops  gemm at the word LSTM gates (32 x 256 x 4096)
//   comm.allreduce_gbps      FP16 allreduce_sum of 4 MiB at G=4 (algbw)
//   comm.memcpy_gbps         memcpy of the same 4 MiB
#include <algorithm>
#include <cstring>
#include <vector>

#include "common.hpp"
#include "zipflm/comm/thread_comm.hpp"
#include "zipflm/support/rng.hpp"
#include "zipflm/tensor/half.hpp"
#include "zipflm/tensor/ops.hpp"

namespace perfbench {
namespace {

using namespace zipflm;

constexpr double kMinSeconds = 0.2;  ///< per calibration, after warm-up
constexpr std::size_t kCollectiveBytes = std::size_t{4} << 20;

/// Median seconds per call of `fn`, repeating until kMinSeconds passed.
template <typename Fn>
double seconds_per_call(Fn fn) {
  fn();  // warm-up: first-touch pages, pool wake-up
  std::vector<double> times;
  double total = 0.0;
  while (total < kMinSeconds || times.size() < 5) {
    const double start = now_seconds();
    fn();
    times.push_back(now_seconds() - start);
    total += times.back();
  }
  return median(std::move(times));
}

double gemm_gflops(Index m, Index k, Index n) {
  Rng rng(7);
  const Tensor a = Tensor::uniform({m, k}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform({k, n}, rng, -1.0f, 1.0f);
  Tensor c({m, n});
  const double s = seconds_per_call([&] { gemm(a, false, b, false, c); });
  return 2.0 * static_cast<double>(m * k * n) / s / 1e9;
}

double allreduce_gbps() {
  constexpr int kRanks = 4;
  constexpr int kCalls = 20;
  CommWorld world(kRanks);
  std::vector<double> per_call(kRanks, 0.0);
  world.run([&](Communicator& comm) {
    std::vector<Half> data(kCollectiveBytes / sizeof(Half), Half(0.5f));
    comm.allreduce_sum(std::span<Half>(data));  // warm-up
    std::vector<double> times;
    for (int i = 0; i < kCalls; ++i) {
      // Reset so sums stay finite, then line the ranks up so each call
      // is timed from a common start.
      std::fill(data.begin(), data.end(), Half(0.5f));
      comm.barrier();
      const double start = now_seconds();
      comm.allreduce_sum(std::span<Half>(data));
      times.push_back(now_seconds() - start);
    }
    per_call[static_cast<std::size_t>(comm.rank())] = median(times);
  });
  const double s = *std::max_element(per_call.begin(), per_call.end());
  return static_cast<double>(kCollectiveBytes) / s / 1e9;
}

double memcpy_gbps() {
  std::vector<std::byte> src(kCollectiveBytes, std::byte{1});
  std::vector<std::byte> dst(kCollectiveBytes);
  const double s = seconds_per_call(
      [&] { std::memcpy(dst.data(), src.data(), kCollectiveBytes); });
  return static_cast<double>(kCollectiveBytes) / s / 1e9;
}

}  // namespace

void calibrate(Result& result, bool smoke) {
  const Index scale = smoke ? 8 : 1;
  result.set("tensor.gemm_rhn_gflops",
             gemm_gflops(8, 1024 / scale, 1024 / scale));
  result.set("tensor.gemm_lstm_gflops",
             gemm_gflops(32, 256 / scale, 4096 / scale));
  result.set("comm.allreduce_gbps", allreduce_gbps());
  result.set("comm.memcpy_gbps", memcpy_gbps());
}

}  // namespace perfbench
