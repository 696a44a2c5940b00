// Central registry of named counters / gauges / histograms — the one
// place every subsystem's instrumentation lands, snapshotted as a
// single JSON document.
//
// Hot-path discipline: look a metric up once (registry lookups take a
// shared lock and allocate on first registration), cache the returned
// reference — addresses are stable for the process lifetime — then
// update it with plain relaxed atomics.  There is no global exclusive
// lock anywhere on the update path, unlike the mutex-guarded phase
// timer map this registry replaced.
//
// Metric name convention: "<subsystem>/<what>[_<unit>]", e.g.
// "phase/forward_seconds", "comm/bytes_sent", "serve/queue_depth".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace zipflm::obs {

/// Monotonic event count.  Relaxed increments: totals are exact, only
/// cross-metric ordering is unspecified (fine for telemetry).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value / accumulating double.  add() and set_max() CAS-loop so
/// concurrent updaters never lose a contribution.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void set_max(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-side copy of a Histogram (or of a LatencyHistogram — the
/// bucketing is identical, so snapshots from either source report the
/// same percentiles for the same observations).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when empty
  double max = 0.0;  ///< 0 when empty
  std::vector<std::uint64_t> buckets;

  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Nearest-rank bucket-upper percentile, clamped to [min, max] —
  /// bit-compatible with LatencyHistogram::percentile.
  double percentile(double p) const;

  /// The window between `earlier` and this snapshot of the same
  /// histogram: per-bucket count deltas, so percentile() answers "over
  /// the last interval" instead of "since process start".  min/max are
  /// carried from the newer snapshot (the atomics only track lifetime
  /// extremes), so window percentiles clamp against lifetime bounds —
  /// an approximation, documented in DESIGN.md §10.
  HistogramSnapshot since(const HistogramSnapshot& earlier) const;
};

/// Thread-safe log-spaced histogram, bucket-compatible with
/// zipflm::LatencyHistogram (256 buckets over (0, 100 s] plus
/// overflow).  record() is a handful of relaxed atomic updates.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 256;

  void record(double value) noexcept;
  HistogramSnapshot snapshot() const;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  void reset() noexcept;

  static std::size_t bucket_for(double value) noexcept;
  static double bucket_upper(std::size_t bucket) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// +-infinity sentinels so concurrent first observations CAS-narrow
  /// without any claim protocol; snapshot() masks them while empty.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// One named-value view of the whole registry, taken atomically enough
/// for telemetry (each metric is read once; cross-metric skew is
/// bounded by the snapshot loop, not by any lock).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  /// Process-wide registry; subsystems share it by name.
  static MetricsRegistry& global();

  /// Find-or-create.  Returned references stay valid (and keep their
  /// identity) for the registry's lifetime — cache them in hot loops.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;
  /// The unified JSON document: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,mean,min,max,p50,p95,p99}}}.
  std::string to_json() const;

  /// Zero every metric whose name starts with `prefix` (all of them
  /// when empty).  Registrations — and cached references — survive.
  void reset(std::string_view prefix = {});

 private:
  template <typename T>
  T& find_or_create(std::map<std::string, std::unique_ptr<T>>& table,
                    std::string_view name);

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace zipflm::obs
