#include "obs/registry.hpp"

#include <algorithm>

namespace spinn::obs {

Histogram::Histogram(std::int64_t lo, std::int64_t hi, std::size_t bins)
    : lo_(lo),
      hi_(hi > lo ? hi : lo + 1),
      counts_(bins > 0 ? bins : 1) {}

namespace {

/// Bin interpolation over an already-taken snapshot.
std::int64_t interpolate(const std::vector<std::uint64_t>& snap,
                         std::uint64_t total, double p, std::int64_t lo,
                         std::int64_t hi) {
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(total);
  const double width =
      static_cast<double>(hi - lo) / static_cast<double>(snap.size());
  double seen = 0.0;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const double next = seen + static_cast<double>(snap[i]);
    if (next >= target && snap[i] > 0) {
      const double frac = (target - seen) / static_cast<double>(snap[i]);
      const double lo_edge =
          static_cast<double>(lo) + width * static_cast<double>(i);
      return static_cast<std::int64_t>(lo_edge + frac * width);
    }
    seen = next;
  }
  return hi;
}

/// Relaxed snapshot of the live bins: the counts keep moving under us, and
/// interpolating over a fixed copy is what keeps the answer internally
/// consistent.
std::uint64_t snapshot(const std::vector<std::atomic<std::uint64_t>>& bins,
                       std::vector<std::uint64_t>* snap) {
  snap->resize(bins.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    (*snap)[i] = bins[i].load(std::memory_order_relaxed);
    total += (*snap)[i];
  }
  return total;
}

}  // namespace

std::int64_t Histogram::percentile(double p) const {
  std::vector<std::uint64_t> snap;
  const std::uint64_t total = snapshot(counts_, &snap);
  return interpolate(snap, total, p, lo_, hi_);
}

Histogram::Summary Histogram::summary() const {
  // One snapshot for all three percentiles: a third of percentile()'s
  // atomic traffic per scrape, and p50/p95/p99 agree about which events
  // they describe.
  std::vector<std::uint64_t> snap;
  const std::uint64_t total = snapshot(counts_, &snap);
  Summary s;
  s.count = count_.load(std::memory_order_relaxed);
  s.p50 = interpolate(snap, total, 0.50, lo_, hi_);
  s.p95 = interpolate(snap, total, 0.95, lo_, hi_);
  s.p99 = interpolate(snap, total, 0.99, lo_, hi_);
  return s;
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: see header
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  MutexLock lk(&mu_);
  Metric& m = metrics_[name];
  if (!m.counter) m.counter = std::make_unique<Counter>();
  return *m.counter;
}

Histogram& Registry::histogram(const std::string& name, std::int64_t lo,
                               std::int64_t hi, std::size_t bins) {
  MutexLock lk(&mu_);
  Metric& m = metrics_[name];
  if (!m.histogram) m.histogram = std::make_unique<Histogram>(lo, hi, bins);
  return *m.histogram;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::rows() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  MutexLock lk(&mu_);
  for (const auto& [name, m] : metrics_) {
    if (m.counter) out.emplace_back(name, m.counter->value());
    if (m.histogram) {
      const Histogram::Summary s = m.histogram->summary();
      out.emplace_back(name + ".count", s.count);
      out.emplace_back(name + ".p50", static_cast<std::uint64_t>(s.p50));
      out.emplace_back(name + ".p95", static_cast<std::uint64_t>(s.p95));
      out.emplace_back(name + ".p99", static_cast<std::uint64_t>(s.p99));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace spinn::obs
