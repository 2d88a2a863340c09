// Tests for the toroidal triangular-facet mesh geometry (Fig. 2) and the
// emergency-routing triangle identity (Fig. 8).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "mesh/topology.hpp"
#include "router/router.hpp"

namespace spinn::mesh {
namespace {

TEST(Topology, NeighbourOffsets) {
  const Topology t(8, 8);
  const ChipCoord c{3, 3};
  EXPECT_EQ(t.neighbour(c, LinkDir::East), (ChipCoord{4, 3}));
  EXPECT_EQ(t.neighbour(c, LinkDir::NorthEast), (ChipCoord{4, 4}));
  EXPECT_EQ(t.neighbour(c, LinkDir::North), (ChipCoord{3, 4}));
  EXPECT_EQ(t.neighbour(c, LinkDir::West), (ChipCoord{2, 3}));
  EXPECT_EQ(t.neighbour(c, LinkDir::SouthWest), (ChipCoord{2, 2}));
  EXPECT_EQ(t.neighbour(c, LinkDir::South), (ChipCoord{3, 2}));
}

TEST(Topology, ToroidalWrap) {
  const Topology t(8, 8);
  EXPECT_EQ(t.neighbour({7, 7}, LinkDir::East), (ChipCoord{0, 7}));
  EXPECT_EQ(t.neighbour({7, 7}, LinkDir::NorthEast), (ChipCoord{0, 0}));
  EXPECT_EQ(t.neighbour({0, 0}, LinkDir::West), (ChipCoord{7, 0}));
  EXPECT_EQ(t.neighbour({0, 0}, LinkDir::SouthWest), (ChipCoord{7, 7}));
}

TEST(Topology, NeighbourOppositeRoundTrip) {
  const Topology t(6, 10);
  for (std::uint16_t x = 0; x < 6; ++x) {
    for (std::uint16_t y = 0; y < 10; ++y) {
      for (int l = 0; l < kLinksPerChip; ++l) {
        const auto d = static_cast<LinkDir>(l);
        const ChipCoord c{x, y};
        EXPECT_EQ(t.neighbour(t.neighbour(c, d), opposite(d)), c);
      }
    }
  }
}

TEST(Topology, DistanceZeroIffSame) {
  const Topology t(8, 8);
  for (std::uint16_t x = 0; x < 8; ++x) {
    for (std::uint16_t y = 0; y < 8; ++y) {
      EXPECT_EQ(t.distance({x, y}, {x, y}), 0);
    }
  }
  EXPECT_GT(t.distance({0, 0}, {1, 0}), 0);
}

TEST(Topology, DistanceUsesDiagonals) {
  const Topology t(16, 16);
  // Same-sign deltas ride the NE/SW diagonal: max norm.
  EXPECT_EQ(t.distance({0, 0}, {3, 3}), 3);
  EXPECT_EQ(t.distance({0, 0}, {5, 2}), 5);
  // Opposite-sign deltas cannot: Manhattan.
  EXPECT_EQ(t.distance({0, 0}, {3, 13}), 6);  // dy wraps to -3: |3| + |-3|
  EXPECT_EQ(t.distance({5, 5}, {6, 4}), 2);   // +1, -1
}

TEST(Topology, DistanceSymmetricOnTorus) {
  const Topology t(9, 7);
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const ChipCoord a{static_cast<std::uint16_t>(rng.uniform_int(9)),
                      static_cast<std::uint16_t>(rng.uniform_int(7))};
    const ChipCoord b{static_cast<std::uint16_t>(rng.uniform_int(9)),
                      static_cast<std::uint16_t>(rng.uniform_int(7))};
    EXPECT_EQ(t.distance(a, b), t.distance(b, a)) << a << " " << b;
  }
}

TEST(Topology, RouteReachesAndMatchesDistance) {
  const Topology t(12, 12);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const ChipCoord a{static_cast<std::uint16_t>(rng.uniform_int(12)),
                      static_cast<std::uint16_t>(rng.uniform_int(12))};
    const ChipCoord b{static_cast<std::uint16_t>(rng.uniform_int(12)),
                      static_cast<std::uint16_t>(rng.uniform_int(12))};
    const auto path = t.route(a, b);
    EXPECT_EQ(static_cast<int>(path.size()), t.distance(a, b));
    ChipCoord cur = a;
    for (const LinkDir d : path) cur = t.neighbour(cur, d);
    EXPECT_EQ(cur, b);
  }
}

TEST(Topology, GreedyPathsArePrefixClosed) {
  // The property that makes union-of-paths a tree (routing_gen relies on
  // it): if chip c lies on route(a, b), then route(a, c) is the prefix of
  // route(a, b) up to c.
  const Topology t(10, 10);
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const ChipCoord a{static_cast<std::uint16_t>(rng.uniform_int(10)),
                      static_cast<std::uint16_t>(rng.uniform_int(10))};
    const ChipCoord b{static_cast<std::uint16_t>(rng.uniform_int(10)),
                      static_cast<std::uint16_t>(rng.uniform_int(10))};
    const auto path = t.route(a, b);
    ChipCoord cur = a;
    std::size_t steps = 0;
    for (const LinkDir d : path) {
      cur = t.neighbour(cur, d);
      ++steps;
      const auto sub = t.route(a, cur);
      ASSERT_EQ(sub.size(), steps);
      for (std::size_t k = 0; k < steps; ++k) {
        ASSERT_EQ(sub[k], path[k]);
      }
    }
  }
}

TEST(Topology, DistanceMatchesBfsOracle) {
  // The closed-form hex-torus distance must equal true shortest paths over
  // the 6-link graph (breadth-first search) for every pair.
  for (const auto& [w, h] : {std::pair<int, int>{8, 8}, {5, 7}, {4, 4}}) {
    const Topology t(static_cast<std::uint16_t>(w),
                     static_cast<std::uint16_t>(h));
    std::vector<int> dist(t.num_chips(), -1);
    std::vector<std::size_t> queue{0};  // BFS from (0,0)
    dist[0] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ChipCoord uc = t.coord_of(queue[head]);
      for (int l = 0; l < kLinksPerChip; ++l) {
        const ChipCoord vc = t.neighbour(uc, static_cast<LinkDir>(l));
        const std::size_t v = t.index(vc);
        if (dist[v] < 0) {
          dist[v] = dist[t.index(uc)] + 1;
          queue.push_back(v);
        }
      }
    }
    for (std::size_t i = 0; i < t.num_chips(); ++i) {
      EXPECT_EQ(t.distance({0, 0}, t.coord_of(i)), dist[i])
          << w << "x" << h << " chip " << t.coord_of(i);
    }
  }
}

TEST(Topology, IndexRoundTrip) {
  const Topology t(5, 9);
  for (std::size_t i = 0; i < t.num_chips(); ++i) {
    EXPECT_EQ(t.index(t.coord_of(i)), i);
  }
}

// ---- the Fig. 8 triangle ---------------------------------------------------

TEST(EmergencyTriangle, DetourEndsAtSameChipForAllDirections) {
  const Topology t(8, 8);
  const ChipCoord origin{4, 4};
  for (int l = 0; l < kLinksPerChip; ++l) {
    const auto blocked = static_cast<LinkDir>(l);
    const ChipCoord direct = t.neighbour(origin, blocked);
    // First leg out of the blocked router...
    const LinkDir leg1 = router::emergency_first_leg(blocked);
    const ChipCoord mid = t.neighbour(origin, leg1);
    // ...second leg computed by the intermediate router from its arrival
    // port.
    const LinkDir arrival = opposite(leg1);
    const LinkDir leg2 = router::emergency_second_leg(arrival);
    const ChipCoord end = t.neighbour(mid, leg2);
    EXPECT_EQ(end, direct) << "triangle broken for " << blocked;
  }
}

TEST(EmergencyTriangle, DetourAvoidsTheBlockedLink) {
  for (int l = 0; l < kLinksPerChip; ++l) {
    const auto blocked = static_cast<LinkDir>(l);
    EXPECT_NE(router::emergency_first_leg(blocked), blocked);
  }
}

}  // namespace
}  // namespace spinn::mesh
