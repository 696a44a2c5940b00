#include "zipflm/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>

#include "zipflm/obs/trace.hpp"  // detail::json_escape

namespace zipflm::obs {

namespace {

// Bucket 0 holds (0, kFloor], buckets 1..kBuckets-2 are log-spaced up
// to kCeil, the last is overflow.
constexpr double kFloor = 1e-7;  // 0.1 us
constexpr double kCeil = 100.0;  // 100 s

double growth_log() {
  static const double g = std::log(kCeil / kFloor) /
                          static_cast<double>(Histogram::kBuckets - 2);
  return g;
}

void atomic_add(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1,
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return std::clamp(Histogram::bucket_upper(b), min, max);
    }
  }
  return max;
}

void HistogramSnapshot::record(double value) {
  if (!std::isfinite(value) || value < 0.0) value = 0.0;
  if (buckets.empty()) buckets.assign(Histogram::kBuckets, 0);
  buckets[Histogram::bucket_for(value)] += 1;
  min = count == 0 ? value : std::min(min, value);
  max = count == 0 ? value : std::max(max, value);
  count += 1;
  sum += value;
}

HistogramSnapshot& HistogramSnapshot::operator+=(
    const HistogramSnapshot& other) {
  if (other.count == 0) return *this;
  if (buckets.size() < other.buckets.size()) {
    buckets.resize(other.buckets.size(), 0);
  }
  for (std::size_t b = 0; b < other.buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  return *this;
}

HistogramSnapshot HistogramSnapshot::since(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot w;
  w.buckets.resize(buckets.size());
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::uint64_t prev =
        b < earlier.buckets.size() ? earlier.buckets[b] : 0;
    w.buckets[b] = buckets[b] >= prev ? buckets[b] - prev : 0;
  }
  w.count = count >= earlier.count ? count - earlier.count : 0;
  w.sum = sum - earlier.sum;
  w.min = min;
  w.max = max;
  return w;
}

std::size_t Histogram::bucket_for(double value) noexcept {
  if (!(value > kFloor)) return 0;
  if (value >= kCeil) return kBuckets - 1;
  const double idx = std::log(value / kFloor) / growth_log();
  const auto b = static_cast<std::size_t>(idx) + 1;
  return std::min(b, kBuckets - 2);
}

double Histogram::bucket_upper(std::size_t bucket) noexcept {
  if (bucket == 0) return kFloor;
  if (bucket >= kBuckets - 1) return kCeil;
  return kFloor * std::exp(growth_log() * static_cast<double>(bucket));
}

void Histogram::record(double value) noexcept {
  if (!std::isfinite(value) || value < 0.0) value = 0.0;
  buckets_[bucket_for(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_min(min_, value);
  atomic_max(max_, value);
  atomic_add(sum_, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.buckets.resize(kBuckets);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = s.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  s.max = s.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry r;
  return r;
}

template <typename T>
T& MetricsRegistry::find_or_create(
    std::map<std::string, std::unique_ptr<T>>& table, std::string_view name) {
  {
    std::shared_lock lock(mutex_);
    // Transparent lookup avoids a temporary string on the common
    // already-registered path.
    const auto it = table.find(std::string(name));
    if (it != table.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = table[std::string(name)];
  if (!slot) slot = std::make_unique<T>();
  return *slot;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return find_or_create(histograms_, name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::shared_lock lock(mutex_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) s.histograms[name] = h->snapshot();
  return s;
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot s = snapshot();
  std::ostringstream out;
  out.precision(17);
  bool first = true;
  const auto comma = [&] {
    if (!first) out << ',';
    first = false;
  };
  // Metric names are user-influenced (shard scopes, session tags) —
  // escape them or one quote in a scope breaks the whole document.
  const auto key = [&](const std::string& name) {
    out << '"';
    detail::json_escape(out, name);
    out << '"';
  };

  out << "{\"counters\":{";
  for (const auto& [name, v] : s.counters) {
    comma();
    key(name);
    out << ':' << v;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : s.gauges) {
    comma();
    key(name);
    out << ':' << v;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    comma();
    key(name);
    out << ":{\"count\":" << h.count << ",\"sum\":" << h.sum
        << ",\"mean\":" << h.mean() << ",\"min\":" << h.min
        << ",\"max\":" << h.max << ",\"p50\":" << h.percentile(0.5)
        << ",\"p95\":" << h.percentile(0.95)
        << ",\"p99\":" << h.percentile(0.99) << '}';
  }
  out << "}}";
  return out.str();
}

void MetricsRegistry::reset(std::string_view prefix) {
  std::shared_lock lock(mutex_);
  const auto matches = [&](const std::string& name) {
    return prefix.empty() ||
           std::string_view(name).substr(0, prefix.size()) == prefix;
  };
  for (const auto& [name, c] : counters_) {
    if (matches(name)) c->reset();
  }
  for (const auto& [name, g] : gauges_) {
    if (matches(name)) g->reset();
  }
  for (const auto& [name, h] : histograms_) {
    if (matches(name)) h->reset();
  }
}

}  // namespace zipflm::obs
