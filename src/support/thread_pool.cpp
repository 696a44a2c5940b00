#include "zipflm/support/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "zipflm/obs/trace.hpp"
#include "zipflm/support/error.hpp"

namespace zipflm {

namespace {
std::size_t default_thread_count() {
  if (const char* env = std::getenv("ZIPFLM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// Distinct trace lanes per pool instance: two pools may be live at once
// (a local test pool next to the global one), and lanes must have a
// single live writer.
std::atomic<int> g_pool_seq{0};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  const int pool_id = g_pool_seq.fetch_add(1, std::memory_order_relaxed);
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this, pool_id, i] {
#if ZIPFLM_TRACE
      // Pool lanes sort after the simulated ranks (rank lanes use their
      // rank as the sort key) and the serve schedulers (100 + N).
      obs::set_thread_lane("pool" + std::to_string(pool_id) + " worker " +
                               std::to_string(i),
                           200 + pool_id * 64 + static_cast<int>(i));
#endif
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunks(Job& job) {
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.total) return;
    const std::size_t begin = c * job.chunk;
    const std::size_t end = std::min(job.n, begin + job.chunk);
    {
      // The span closes (and its ring write lands) before this chunk's
      // done increment, so the submitter's final acquire of `done` —
      // and anything after it, e.g. a trace export — happens-after
      // every worker's trace writes.
      ZIPFLM_TRACE_SPAN_ARG("pool_chunk", "indices",
                            static_cast<double>(end - begin));
      job.fn(begin, end);
    }
    job.done.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t last_seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mutex_);
      wake_cv_.wait(lock, [&] { return stop_ || seq_ != last_seen; });
      if (stop_) return;
      last_seen = seq_;
      job = job_;  // own a reference: a stale claim can never touch a
                   // newer job's counters
    }
    if (!job) continue;
    run_chunks(*job);
    if (job->done.load(std::memory_order_acquire) == job->total) {
      // Possibly the last finisher: wake the submitting thread.
      std::scoped_lock lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  parallel_chunks(
      n,
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      grain);
}

void ThreadPool::parallel_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (n == 0) return;
  // Serial fast path: nothing to share with, or too little work to pay
  // for a wake-up (see kDefaultGrain).
  if (workers_.empty() || n <= std::max<std::size_t>(grain, 1)) {
    fn(0, n);
    return;
  }
  // One region at a time.  A concurrent submitter (another rank thread)
  // or a nested call from inside a chunk runs serially inline — same
  // result, no deadlock.
  if (busy_.exchange(true, std::memory_order_acquire)) {
    fn(0, n);
    return;
  }

  ZIPFLM_TRACE_SPAN_ARG("parallel_region", "indices", static_cast<double>(n));
  auto job = std::make_shared<Job>();
  job->fn = fn;
  job->n = n;
  const std::size_t lanes = size();
  job->chunk =
      std::max(std::max<std::size_t>(grain, 1), (n + lanes - 1) / lanes);
  job->total = (n + job->chunk - 1) / job->chunk;
  {
    std::scoped_lock lock(mutex_);
    job_ = job;
    ++seq_;
  }
  wake_cv_.notify_all();

  run_chunks(*job);  // the caller is a lane too
  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->total;
    });
    job_.reset();
  }
  busy_.store(false, std::memory_order_release);
}

namespace {
std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

ThreadPool& ThreadPool::global() {
  std::scoped_lock lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::scoped_lock lock(global_mutex());
  global_slot() = std::make_unique<ThreadPool>(threads);
}

}  // namespace zipflm
