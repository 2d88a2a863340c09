// The observability layer's own contract tests: the benches' sample
// percentile, the binned histogram's interpolation pins, counter and
// histogram semantics under concurrency, the bounded trace ring, and the
// tracer's Chrome-JSON dump shape.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/trace_ring.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/stats.hpp"

namespace spinn {
namespace {

// ---- sim::percentile (the sample-exact rule the benches use) ---------------

TEST(Percentile, EmptyInputIsZero) {
  EXPECT_DOUBLE_EQ(sim::percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(sim::percentile({}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(sim::percentile({}, 1.0), 0.0);
}

TEST(Percentile, SingleSampleIsItselfAtEveryP) {
  for (const double p : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(sim::percentile({42.0}, p), 42.0) << "p=" << p;
  }
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  // R-7 rule: position p*(n-1) in the sorted samples.
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 0.5), 25.0);   // pos 1.5
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 1.0 / 3), 20.0);  // pos exactly 1
}

TEST(Percentile, UnsortedInputIsSortedFirst) {
  EXPECT_DOUBLE_EQ(sim::percentile({30.0, 10.0, 20.0}, 0.5), 20.0);
}

TEST(Percentile, OutOfRangePClamps) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(sim::percentile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 1.5), 3.0);
}

// ---- obs::Counter / Histogram ----------------------------------------------

TEST(ObsCounter, SumsAcrossConcurrentIncrements) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsCounter, IncByAddsExactly) {
  obs::Counter c;
  c.inc(7);
  c.inc(3);
  EXPECT_EQ(c.value(), 10u);
}

// The scrape promise at the counter level: a writer adds a frame's bytes
// before the frame, so a reader that reads frames before bytes never sees a
// frame without its bytes (inc publishes with release, value() reads with
// acquire).
TEST(ObsCounter, FramesReadBeforeBytesNeverOutrunTheirBytes) {
  obs::Counter frames;
  obs::Counter bytes;
  constexpr std::uint64_t kFrames = 100000;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      bytes.inc(6);
      frames.inc();
    }
    done.store(true, std::memory_order_release);
  });
  std::uint64_t torn = 0;
  for (bool last = false; !last;) {
    last = done.load(std::memory_order_acquire);
    const std::uint64_t f = frames.value();
    const std::uint64_t b = bytes.value();
    if (b < 6 * f) ++torn;
  }
  writer.join();
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(frames.value(), kFrames);
  EXPECT_EQ(bytes.value(), 6 * kFrames);
}

TEST(ObsHistogram, EmptyPercentileIsZero) {
  obs::Histogram h(0, 1000, 100);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0);
}

TEST(ObsHistogram, SingleSampleStaysInItsBin) {
  obs::Histogram h(0, 1000, 100);  // 10-wide bins
  h.observe(345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 345u);
  EXPECT_GE(h.percentile(0.5), 340);
  EXPECT_LE(h.percentile(0.5), 350);
  EXPECT_GE(h.percentile(0.99), 340);
  EXPECT_LE(h.percentile(0.99), 350);
  // p = 1.0 of a single sample is its bin's top edge.
  EXPECT_EQ(h.percentile(1.0), 350);
  // A sample on a bin edge counts in the upper bin ([lo, hi) bins).
  obs::Histogram edge(0, 100, 10);
  edge.observe(30);
  EXPECT_EQ(edge.percentile(1.0), 40);
}

TEST(ObsHistogram, ClampsOutOfRangeObservations) {
  obs::Histogram h(0, 1000, 10);
  h.observe(-50);
  h.observe(5000);
  EXPECT_EQ(h.count(), 2u);
  // The negative sample contributes 0 to the sum (sum is of clamped-at-0
  // magnitudes), the high one its real value.
  EXPECT_EQ(h.sum(), 5000u);
  EXPECT_EQ(h.percentile(1.0), 1000);  // saturates at hi
  EXPECT_LE(h.percentile(0.5), 100);   // the low sample sits in bin 0
}

TEST(ObsHistogram, PercentilesOrdered) {
  obs::Histogram h(0, 10000, 1000);
  for (int i = 0; i < 1000; ++i) h.observe(i * 10);
  EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
  EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 5000.0, 100.0);
  // A uniform fill (one sample per 10-wide bin) puts the tail percentiles
  // within a bin of their exact values.
  EXPECT_NEAR(static_cast<double>(h.percentile(0.95)), 9500.0, 10.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(0.99)), 9900.0, 10.0);
}

TEST(ObsHistogram, SummaryMatchesIndividualPercentiles) {
  // summary() is the scrape path (one snapshot for all three
  // percentiles); with no concurrent writers it must agree exactly with
  // three percentile() calls.
  obs::Histogram h(0, 10000, 1000);
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_EQ(h.summary().p99, 0);
  for (int i = 0; i < 1000; ++i) h.observe(i * 10);
  const obs::Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, h.count());
  EXPECT_EQ(s.p50, h.percentile(0.50));
  EXPECT_EQ(s.p95, h.percentile(0.95));
  EXPECT_EQ(s.p99, h.percentile(0.99));
}

// ---- obs::Registry ---------------------------------------------------------

TEST(ObsRegistry, FindOrCreateReturnsStableReferences) {
  auto& reg = obs::Registry::global();
  obs::Counter& a = reg.counter("test.registry.counter");
  obs::Counter& b = reg.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  obs::Histogram& ha = reg.histogram("test.registry.hist", 0, 100, 10);
  obs::Histogram& hb = reg.histogram("test.registry.hist", 0, 999, 77);
  EXPECT_EQ(&ha, &hb);  // re-registration keeps the original range
  EXPECT_EQ(hb.hi(), 100);
}

TEST(ObsRegistry, RowsSortedAndHistogramsExpand) {
  auto& reg = obs::Registry::global();
  reg.counter("test.rows.b").inc(2);
  reg.counter("test.rows.a").inc(1);
  reg.histogram("test.rows.h", 0, 100, 10).observe(50);
  const auto rows = reg.rows();
  ASSERT_FALSE(rows.empty());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].first, rows[i].first) << "rows must be sorted";
  }
  const auto find = [&](const std::string& name) -> const std::uint64_t* {
    for (const auto& [n, v] : rows) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(find("test.rows.a"), nullptr);
  EXPECT_EQ(*find("test.rows.a"), 1u);
  EXPECT_EQ(*find("test.rows.b"), 2u);
  ASSERT_NE(find("test.rows.h.count"), nullptr);
  EXPECT_EQ(*find("test.rows.h.count"), 1u);
  EXPECT_NE(find("test.rows.h.p50"), nullptr);
  EXPECT_NE(find("test.rows.h.p95"), nullptr);
  EXPECT_NE(find("test.rows.h.p99"), nullptr);
}

// ---- TraceRing -------------------------------------------------------------

TEST(TraceRing, BoundedOverwriteKeepsNewest) {
  TraceRing<2> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t rec[2] = {i, i * 10};
    ring.push(rec);
  }
  EXPECT_EQ(ring.pushed(), 20u);
  const auto out = ring.read();
  ASSERT_EQ(out.size(), 8u);  // only the last capacity survive
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i][0], 12 + i);  // oldest surviving is push #12
    EXPECT_EQ(out[i][1], (12 + i) * 10);
  }
}

TEST(TraceRing, ConcurrentReaderNeverSeesTornRecords) {
  // Single producer pushes (i, ~i) pairs; a reader snapshots continuously.
  // Every record read must be internally consistent.
  TraceRing<2> ring(64);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& rec : ring.read()) {
        ASSERT_EQ(rec[1], ~rec[0]) << "torn record";
      }
    }
  });
  for (std::uint64_t i = 0; i < 200000; ++i) {
    const std::uint64_t rec[2] = {i, ~i};
    ring.push(rec);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}

// ---- Tracer ----------------------------------------------------------------

TEST(Tracer, RecordsAndDumpsChromeJson) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.set_enabled(true);
  tr.complete("testcat", "span.one", 1000, 2500, "arg", 7);
  tr.instant("testcat", "point.one", 5005, nullptr, 0,
             /*virtual_clock=*/true);
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "span.one");
  EXPECT_EQ(events[0].ts_ns, 1000);
  EXPECT_EQ(events[0].dur_ns, 2500);
  EXPECT_FALSE(events[0].instant);
  EXPECT_FALSE(events[0].virtual_clock);
  EXPECT_STREQ(events[0].arg_name, "arg");
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_TRUE(events[1].instant);
  EXPECT_TRUE(events[1].virtual_clock);

  const std::string json = tr.dump_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span.one\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // ns precision survives as zero-padded µs fractions: 1000ns = 1.000µs,
  // 5005ns = 5.005µs.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":5.005"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  // Virtual-time events live in pid 1, wall in pid 0.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"arg\":7}"), std::string::npos);
}

TEST(Tracer, DisabledRecordsNothing) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.set_enabled(false);
  tr.complete("testcat", "dropped", 0, 1);
  EXPECT_TRUE(tr.snapshot().empty());
  tr.set_enabled(true);
  tr.complete("testcat", "kept", 0, 1);
  EXPECT_EQ(tr.snapshot().size(), 1u);
}

TEST(Tracer, ClearDropsEvents) {
  auto& tr = obs::Tracer::global();
  tr.set_enabled(true);
  tr.complete("testcat", "x", 0, 1);
  EXPECT_FALSE(tr.snapshot().empty());
  tr.clear();
  EXPECT_TRUE(tr.snapshot().empty());
}

TEST(Tracer, SnapshotSortedByTimestamp) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.set_enabled(true);
  tr.instant("testcat", "late", 300);
  tr.instant("testcat", "early", 100);
  tr.instant("testcat", "mid", 200);
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "early");
  EXPECT_STREQ(events[1].name, "mid");
  EXPECT_STREQ(events[2].name, "late");
}

}  // namespace
}  // namespace spinn
