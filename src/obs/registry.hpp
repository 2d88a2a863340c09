// obs::Registry — the server's one metrics namespace.
//
// A million-core machine is only operable if every layer reports into one
// place (docs/OBSERVABILITY.md).  The registry holds two metric kinds, both
// built for hot-path increments and scrape-time aggregation:
//
//  * Counter   — monotone u64 in one atomic: inc() is one release
//                fetch_add, value() one acquire load at scrape.
//  * Histogram — fixed-bin atomic counts over [lo, hi) with clamped end
//                bins, exposing count/p50/p95/p99 at scrape time by bin
//                interpolation.  It is the one binned histogram: the
//                simulator's latency probes observe into it too.
//
// Lock discipline: metric *registration* (find-or-create by name) takes the
// registry mutex and belongs in constructors/setup paths, which then hold
// plain references for the object's life (entries are never removed, so
// references never dangle).  The increment paths — inc/observe — take no
// lock and allocate nothing; tools/lint_invariants.py's `obs-hot-path`
// rule enforces that on every `// obs:hot` body in this file.
//
// The wire surface is the `metrics` verb (net/protocol.cpp): the derived
// NetStats/ServerStats fields in pinned order, then this registry's rows()
// sorted by name.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace spinn::obs {

/// Monotone counter.
///
/// Ordering: inc() publishes with release and value() reads with acquire.
/// So when one thread increments `a` and then `b`, a reader that reads
/// `b` and then `a` sees, for every increment of `b` it counts, the
/// increments of `a` made before it — the rule that keeps a scrape from
/// showing a frame without its bytes.  On x86 both cost the same as
/// relaxed.
class Counter {
 public:
  // obs:hot — metric-increment path: no locks, no allocation.
  void inc(std::uint64_t by = 1) noexcept {
    v_.fetch_add(by, std::memory_order_release);
  }

  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Fixed-bin latency histogram over [lo_ns, hi_ns); out-of-range samples
/// clamp to the end bins (nothing is silently dropped), so percentile()
/// saturates at hi for outliers rather than inventing a tail.
class Histogram {
 public:
  Histogram(std::int64_t lo, std::int64_t hi, std::size_t bins);

  // obs:hot — metric-increment path: no locks, no allocation.
  void observe(std::int64_t x) noexcept {
    std::int64_t bin = (x - lo_) * static_cast<std::int64_t>(counts_.size()) /
                       (hi_ - lo_);
    if (bin < 0) bin = 0;
    const auto last = static_cast<std::int64_t>(counts_.size()) - 1;
    if (bin > last) bin = last;
    counts_[static_cast<std::size_t>(bin)].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(static_cast<std::uint64_t>(x < 0 ? 0 : x),
                   std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Bin-interpolated percentile (p in [0, 1]) of everything observed so
  /// far, truncated to integer units; 0 when empty.  Interpolates linearly
  /// inside the bin the p-th sample falls in, over a relaxed snapshot of
  /// the bins: p = 1 of a single sample is its bin's top edge.
  std::int64_t percentile(double p) const;

  /// One scrape row set — count plus p50/p95/p99 — from a *single* bin
  /// snapshot and a single accumulation pass.  This is what `rows()` uses:
  /// three percentile() calls would re-snapshot (and re-scan) up to 2000
  /// bins each, and the three answers could disagree about which events
  /// they saw.
  struct Summary {
    std::uint64_t count = 0;
    std::int64_t p50 = 0;
    std::int64_t p95 = 0;
    std::int64_t p99 = 0;
  };
  Summary summary() const;

  std::int64_t lo() const noexcept { return lo_; }
  std::int64_t hi() const noexcept { return hi_; }

 private:
  std::int64_t lo_;
  std::int64_t hi_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

class Registry {
 public:
  /// The process-wide registry every layer reports into.  Never destroyed
  /// (metrics may be touched from thread_local destructors at exit).
  static Registry& global();

  /// Find-or-create by name.  Takes the registry lock — setup paths only;
  /// hold the returned reference (stable for the registry's life) for
  /// hot-path use.  A histogram re-registered under an existing name keeps
  /// the original's range.
  Counter& counter(const std::string& name) SPINN_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name, std::int64_t lo,
                       std::int64_t hi, std::size_t bins)
      SPINN_EXCLUDES(mu_);

  /// Scrape: one `{name, value}` row per counter, and four rows per
  /// histogram (`<name>.count`, `.p50`, `.p95`, `.p99` — integer units),
  /// sorted by name.  Counters and histogram counts are monotone across
  /// successive scrapes.
  std::vector<std::pair<std::string, std::uint64_t>> rows() const
      SPINN_EXCLUDES(mu_);

 private:
  struct Metric {
    // Exactly one is set; a tiny hand-rolled variant keeps the storage
    // stable (unique_ptr) without RTTI.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };

  mutable Mutex mu_;
  std::map<std::string, Metric> metrics_ SPINN_GUARDED_BY(mu_);
};

}  // namespace spinn::obs
