// Unit tests for the common substrate: strong types, deterministic RNG,
// S16.15 fixed-point arithmetic and the ring-buffer FIFO.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/ring_fifo.hpp"
#include "common/rng.hpp"
#include "common/rng_stream.hpp"
#include "common/types.hpp"

namespace spinn {
namespace {

// ---- types -----------------------------------------------------------------

TEST(Types, OppositeLinkIsInvolution) {
  for (int l = 0; l < kLinksPerChip; ++l) {
    const auto d = static_cast<LinkDir>(l);
    EXPECT_EQ(opposite(opposite(d)), d);
    EXPECT_NE(opposite(d), d);
  }
}

TEST(Types, OppositePairsMatchGeometry) {
  EXPECT_EQ(opposite(LinkDir::East), LinkDir::West);
  EXPECT_EQ(opposite(LinkDir::NorthEast), LinkDir::SouthWest);
  EXPECT_EQ(opposite(LinkDir::North), LinkDir::South);
}

TEST(Types, P2pAddressRoundTrip) {
  for (std::uint16_t x = 0; x < 256; x += 17) {
    for (std::uint16_t y = 0; y < 256; y += 13) {
      const ChipCoord c{x, y};
      EXPECT_EQ(chip_of_p2p(make_p2p_address(c)), c);
    }
  }
}

TEST(Types, ChipCoordOrderingAndHash) {
  const ChipCoord a{1, 2};
  const ChipCoord b{1, 3};
  const ChipCoord c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_NE(std::hash<ChipCoord>{}(a), std::hash<ChipCoord>{}(b));
}

TEST(Types, StreamOperators) {
  std::ostringstream os;
  os << ChipCoord{3, 4} << " " << LinkDir::NorthEast << " "
     << CoreId{{1, 1}, 7};
  EXPECT_EQ(os.str(), "(3,4) NE (1,1):7");
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t v = rng.uniform_int(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values reached
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFailuresReplaysAChanceLoop) {
  // The scan must be the loop of chance() calls it replaces, draw for
  // draw: the same count, and the generator left where the loop leaves it.
  // Fifty calls in a row start scans right after a success.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {0.0, 1.0, -0.5, 1.5, nan, 0x1.0p-53, 1e-6, 0.005,
                         0.02, 0.5, 1.0 - 0x1.0p-53}) {
    for (const std::uint64_t limit : {0u, 1u, 7u, 10000u}) {
      Rng scan(21);
      Rng loop(21);
      for (int call = 0; call < 50; ++call) {
        std::uint64_t failures = 0;
        while (failures < limit && !loop.chance(p)) ++failures;
        ASSERT_EQ(scan.chance_failures(p, limit), failures)
            << "p=" << p << " limit=" << limit << " call=" << call;
      }
      EXPECT_EQ(scan.next(), loop.next()) << "p=" << p << " limit=" << limit;
    }
  }
}

TEST(Rng, ChanceFailuresThresholdIsExactAtTheDraw) {
  // p equal to a draw's own uniform() value fails that trial (u < p is
  // false); the next double above it succeeds.
  Rng peek(5);
  for (int i = 0; i < 100; ++i) {
    Rng scan = peek;
    const double u = peek.uniform();
    if (u == 0.0) continue;
    Rng at = scan;
    EXPECT_EQ(at.chance_failures(u, 1), 1u) << "u=" << u;
    EXPECT_EQ(scan.chance_failures(std::nextafter(u, 1.0), 1), 0u)
        << "u=" << u;
  }
}

// ---- rng stream --------------------------------------------------------------
// The stream is only built on a CPU with a vector kernel; elsewhere callers
// keep Rng, and these tests have nothing to check.

TEST(RngStream, EqualsRngNextAcrossBlockRefills) {
  if (!RngStream::available()) GTEST_SKIP() << "no vector kernel on this CPU";
  // Three and a half blocks: the lane starts, three jumps and a partial
  // block, for several seeds.
  for (const std::uint64_t seed : {1ull, 7ull, 0x10adD00Dull, ~0ull}) {
    Rng ref(seed);
    Rng src(seed);
    {
      RngStream stream(src);
      for (std::size_t i = 0; i < 3 * RngStream::kBlock + 1234; ++i) {
        ASSERT_EQ(stream.next(), ref.next()) << "seed=" << seed << " i=" << i;
      }
    }
    EXPECT_EQ(src.next(), ref.next()) << "seed=" << seed;
  }
}

TEST(RngStream, LeavesTheRngAfterItsLastOutput) {
  if (!RngStream::available()) GTEST_SKIP() << "no vector kernel on this CPU";
  // Every lane's first and last output, a block's edges and none at all.
  constexpr std::size_t kL = RngStream::kLaneOutputs;
  constexpr std::size_t kB = RngStream::kBlock;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kL - 1, kL,
                              kL + 1, 5 * kL + 17, kB - 1, kB, kB + 1,
                              2 * kB + 3 * kL}) {
    Rng ref(33);
    Rng src(33);
    {
      RngStream stream(src);
      for (std::size_t i = 0; i < n; ++i) stream.next();
    }
    for (std::size_t i = 0; i < n; ++i) ref.next();
    EXPECT_EQ(src.next(), ref.next()) << "n=" << n;
  }
}

TEST(RngStream, ChanceFailuresEqualsRng) {
  if (!RngStream::available()) GTEST_SKIP() << "no vector kernel on this CPU";
  // Runs at each p, started just before a block's end so that long ones
  // straddle it, then a draw between runs as the loader's synapses make.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {0.0, 1.0, -0.5, 1.5, nan, 0x1.0p-60, 0x1.0p-53,
                         0.005, 0.02, 0.5, 1.0 - 0x1.0p-53}) {
    for (const std::uint64_t limit :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{64},
          std::uint64_t{5000}, std::uint64_t{RngStream::kBlock + 100}}) {
      Rng ref(21);
      Rng src(21);
      const Chance chance(p);
      {
        RngStream stream(src);
        for (std::size_t i = 0; i < RngStream::kBlock - 37; ++i) {
          ASSERT_EQ(stream.next(), ref.next());
        }
        for (int call = 0; call < 40; ++call) {
          ASSERT_EQ(stream.chance_failures(chance, limit),
                    ref.chance_failures(p, limit))
              << "p=" << p << " limit=" << limit << " call=" << call;
          ASSERT_EQ(stream.next(), ref.next())
              << "p=" << p << " limit=" << limit << " call=" << call;
        }
      }
      EXPECT_EQ(src.next(), ref.next()) << "p=" << p << " limit=" << limit;
    }
  }
}

TEST(RngStream, MixedCallsEqualRng) {
  if (!RngStream::available()) GTEST_SKIP() << "no vector kernel on this CPU";
  // 200k calls the way a load interleaves them: scans at a few bounds
  // (each change of bound re-marks the block from the current output),
  // single draws and uniform ranges.
  const double ps[] = {0.02, 0.005, 0.3, 0x1.0p-60, 0.0, 1.0};
  Rng pick(99);
  Rng ref(5);
  Rng src(5);
  {
    RngStream stream(src);
    for (int call = 0; call < 200000; ++call) {
      switch (pick.uniform_int(3)) {
        case 0: {
          const double p = ps[pick.uniform_int(std::size(ps))];
          const std::uint64_t limit = pick.uniform_int(300);
          ASSERT_EQ(stream.chance_failures(Chance(p), limit),
                    ref.chance_failures(p, limit))
              << "call=" << call << " p=" << p << " limit=" << limit;
          break;
        }
        case 1:
          ASSERT_EQ(stream.next(), ref.next()) << "call=" << call;
          break;
        default:
          ASSERT_EQ(stream.uniform(1.0, 8.0), ref.uniform(1.0, 8.0))
              << "call=" << call;
          break;
      }
    }
  }
  EXPECT_EQ(src.next(), ref.next());
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(11);
  for (const double mean : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.poisson(mean);
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng parent(99);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child1.next() == child2.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// ---- fixed point -----------------------------------------------------------

using fixed_literals::operator""_acc;

TEST(Accum, IntConversionExact) {
  for (int v = -1000; v <= 1000; v += 37) {
    EXPECT_DOUBLE_EQ(Accum::from_int(v).to_double(), v);
  }
}

TEST(Accum, AdditionSubtraction) {
  const Accum a = Accum::from_double(1.5);
  const Accum b = Accum::from_double(2.25);
  EXPECT_DOUBLE_EQ((a + b).to_double(), 3.75);
  EXPECT_DOUBLE_EQ((a - b).to_double(), -0.75);
  EXPECT_DOUBLE_EQ((-a).to_double(), -1.5);
}

TEST(Accum, MultiplicationAccuracy) {
  // Fixed point should track doubles to within one LSB for moderate values.
  const double lsb = 1.0 / (1 << Accum::kFractionBits);
  for (double a = -8.0; a <= 8.0; a += 0.613) {
    for (double b = -8.0; b <= 8.0; b += 0.427) {
      const double got =
          (Accum::from_double(a) * Accum::from_double(b)).to_double();
      EXPECT_NEAR(got, a * b, 32 * lsb) << a << " * " << b;
    }
  }
}

TEST(Accum, DivisionAccuracy) {
  const double lsb = 1.0 / (1 << Accum::kFractionBits);
  const double got =
      (Accum::from_double(5.0) / Accum::from_double(2.0)).to_double();
  EXPECT_NEAR(got, 2.5, lsb);
}

TEST(Accum, SaturatingAddClamps) {
  const Accum big = Accum::from_raw(INT32_MAX - 5);
  const Accum more = Accum::from_int(10);
  EXPECT_EQ(Accum::saturating_add(big, more).raw(), INT32_MAX);
  const Accum small = Accum::from_raw(INT32_MIN + 5);
  EXPECT_EQ(Accum::saturating_add(small, -more).raw(), INT32_MIN);
}

TEST(Accum, ComparisonOperators) {
  EXPECT_LT(1.0_acc, 2.0_acc);
  EXPECT_EQ(2.0_acc, Accum::from_int(2));
  EXPECT_GT(0.5_acc, 0.25_acc);
}

TEST(Accum, CompoundAssignment) {
  Accum a = 1.0_acc;
  a += 2.0_acc;
  EXPECT_DOUBLE_EQ(a.to_double(), 3.0);
  a -= 0.5_acc;
  EXPECT_DOUBLE_EQ(a.to_double(), 2.5);
  a *= 2.0_acc;
  EXPECT_DOUBLE_EQ(a.to_double(), 5.0);
}

/// Property sweep: (a*b)*c ~ a*(b*c) within quantisation tolerance.
class AccumAssocTest : public ::testing::TestWithParam<int> {};

TEST_P(AccumAssocTest, MultiplicationNearAssociative) {
  Rng rng(GetParam());
  const double lsb = 1.0 / (1 << Accum::kFractionBits);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(-5.0, 5.0);
    const double b = rng.uniform(-5.0, 5.0);
    const double c = rng.uniform(-5.0, 5.0);
    const Accum l =
        (Accum::from_double(a) * Accum::from_double(b)) * Accum::from_double(c);
    const Accum r =
        Accum::from_double(a) * (Accum::from_double(b) * Accum::from_double(c));
    EXPECT_NEAR(l.to_double(), r.to_double(), 64 * lsb);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccumAssocTest, ::testing::Values(1, 2, 3, 4));

// ---- RingFifo --------------------------------------------------------------

std::vector<int> drain_all(RingFifo<int>& q) {
  std::vector<int> out;
  while (!q.empty()) out.push_back(q.pop_front());
  return out;
}

TEST(RingFifo, TakesNoStorageUntilFirstPushAndKeepsItWhenDrained) {
  RingFifo<int> q;
  EXPECT_EQ(q.capacity(), 0u);
  q.push_back(1);
  const std::size_t cap = q.capacity();
  EXPECT_GT(cap, 0u);
  EXPECT_EQ(q.pop_front(), 1);
  q.clear();
  EXPECT_EQ(q.capacity(), cap);
}

TEST(RingFifo, KeepsFifoOrderAcrossWrapAround) {
  RingFifo<int> q;
  q.push_back(0);
  const std::size_t cap = q.capacity();
  // Walk the head once round the ring with the queue never full, so every
  // push past the end wraps to slot 0.
  int next_in = 1;
  int next_out = 0;
  for (std::size_t i = 0; i < 3 * cap; ++i) {
    q.push_back(next_in++);
    EXPECT_EQ(q.pop_front(), next_out++);
  }
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_EQ(drain_all(q), std::vector<int>{next_out});
}

TEST(RingFifo, PushFrontAfterTheHeadWrapsToSlotZero) {
  // The output port's stalled-packet path: pop the packet to send, then
  // put it back at the head when the link has failed.
  RingFifo<int> q;
  q.push_back(0);
  const std::size_t cap = q.capacity();
  for (std::size_t i = 1; i < cap; ++i) q.push_back(static_cast<int>(i));
  drain_all(q);  // the head is back at slot 0
  q.push_back(1);
  q.push_back(2);
  q.push_front(0);  // the head wraps backwards to the last slot
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q[0], 0);
  const int in_flight = q.pop_front();
  q.push_front(in_flight);
  EXPECT_EQ(drain_all(q), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.capacity(), cap);
}

TEST(RingFifo, GrowthWhileWrappedKeepsOrder) {
  RingFifo<int> q;
  q.push_back(0);
  const std::size_t cap = q.capacity();
  q.push_back(1);
  EXPECT_EQ(q.pop_front(), 0);
  EXPECT_EQ(q.pop_front(), 1);
  // Fill from slot 2 round past the end, then overflow.
  std::vector<int> expect;
  for (int v = 10; v < 10 + static_cast<int>(cap) + 3; ++v) {
    q.push_back(v);
    expect.push_back(v);
  }
  q.push_front(9);
  expect.insert(expect.begin(), 9);
  EXPECT_EQ(q.capacity(), 2 * cap);
  for (std::size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(q[i], expect[i]);
  EXPECT_EQ(drain_all(q), expect);
}

TEST(RingFifo, PopAndClearDestroyTheElement) {
  int released = 0;
  struct CountingDelete {
    int* released;
    void operator()(int* p) const {
      ++*released;
      delete p;
    }
  };
  using Owned = std::unique_ptr<int, CountingDelete>;
  RingFifo<Owned> q;
  for (int v = 0; v < 3; ++v) {
    q.push_back(Owned(new int(v), CountingDelete{&released}));
  }
  EXPECT_EQ(*q.pop_front(), 0);
  EXPECT_EQ(released, 1);
  q.clear();
  EXPECT_EQ(released, 3);
  EXPECT_TRUE(q.empty());
  {
    RingFifo<Owned> dropped;
    dropped.push_back(Owned(new int(3), CountingDelete{&released}));
  }
  EXPECT_EQ(released, 4);
}

}  // namespace
}  // namespace spinn
