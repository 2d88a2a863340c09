// Tests for the multicast router (§4, §5.2, §5.3): table lookup semantics,
// default routing, p2p, nn, fan-out, and the three-stage blocked-output
// policy with emergency routing and drop-with-monitor-notify.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "router/router.hpp"
#include "sim/simulator.hpp"

namespace spinn::router {
namespace {

RouterConfig fast_config() {
  RouterConfig cfg;
  cfg.pipeline_latency_ns = 100;
  cfg.emergency_wait_ns = 400;
  cfg.drop_wait_ns = 400;
  cfg.port.fifo_depth = 4;
  cfg.port.bits_per_sec = 250e6;
  cfg.port.flight_ns = 10;
  return cfg;
}

Packet mc(RoutingKey key) {
  Packet p;
  p.type = PacketType::Multicast;
  p.key = key;
  return p;
}

struct Harness {
  sim::Simulator sim{1};
  Router router;
  std::vector<std::pair<LinkDir, Packet>> out;
  std::vector<std::pair<CoreIndex, Packet>> local;
  std::vector<Packet> monitor;
  std::vector<RouterEvent> events;

  explicit Harness(RouterConfig cfg = fast_config())
      : router(sim, ChipCoord{0, 0}, cfg) {
    for (int l = 0; l < kLinksPerChip; ++l) {
      const auto d = static_cast<LinkDir>(l);
      router.port(d).set_sink(
          [this, d](const Packet& p) { out.emplace_back(d, p); });
    }
    router.set_local_sink([this](CoreSet cores, const Packet& p) {
      cores.for_each([&](CoreIndex c) { local.emplace_back(c, p); });
    });
    router.set_monitor_sink([this](const Packet& p) { monitor.push_back(p); });
    router.set_monitor_notify(
        [this](const RouterEvent& e) { events.push_back(e); });
  }
};

// ---- multicast table -------------------------------------------------------

TEST(McTable, LowestNumberedEntryWins) {
  MulticastTable t;
  ASSERT_TRUE(t.add({0x1000, 0xF000, Route::to_link(LinkDir::East)}));
  ASSERT_TRUE(t.add({0x1000, 0xF000, Route::to_link(LinkDir::West)}));
  const auto r = t.lookup(0x1234);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->has_link(LinkDir::East));
  EXPECT_FALSE(r->has_link(LinkDir::West));
}

TEST(McTable, MaskedMatching) {
  MulticastTable t;
  t.add({0xAB00, 0xFF00, Route::to_core(3)});
  EXPECT_TRUE(t.lookup(0xAB42).has_value());
  EXPECT_TRUE(t.lookup(0xABFF).has_value());
  EXPECT_FALSE(t.lookup(0xAC00).has_value());
}

TEST(McTable, CapacityIs1024) {
  MulticastTable t;
  for (std::size_t i = 0; i < MulticastTable::kCapacity; ++i) {
    ASSERT_TRUE(t.add({static_cast<RoutingKey>(i), ~0u, Route::to_core(0)}));
  }
  EXPECT_TRUE(t.full());
  EXPECT_FALSE(t.add({9999, ~0u, Route::to_core(0)}));
}

// ---- routing behaviour -----------------------------------------------------

TEST(Router, MulticastFanOutToLinksAndCores) {
  Harness h;
  h.router.mc_table().add(
      {0x100, ~0u,
       Route::to_link(LinkDir::East).with_link(LinkDir::North).with_core(2)});
  h.router.receive(mc(0x100), std::nullopt);
  h.sim.run();
  ASSERT_EQ(h.out.size(), 2u);
  EXPECT_EQ(h.local.size(), 1u);
  EXPECT_EQ(h.local[0].first, 2);
  EXPECT_EQ(h.router.counters().forwarded, 2u);
  EXPECT_EQ(h.router.counters().delivered_local, 1u);
}

TEST(Router, LocalCoresOfARouteShareOneDelivery) {
  Harness h;
  std::vector<CoreSet> deliveries;
  h.router.set_local_sink(
      [&](CoreSet cores, const Packet&) { deliveries.push_back(cores); });
  h.router.mc_table().add(
      {0x100, ~0u, Route::to_core(7).with_core(0).with_core(19)});
  h.router.receive(mc(0x100), std::nullopt);
  h.sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], CoreSet::of(0).with(7).with(19));
  EXPECT_EQ(h.router.counters().delivered_local, 3u);
}

TEST(Router, DefaultRoutingGoesStraightThrough) {
  Harness h;  // empty table
  h.router.receive(mc(0x42), LinkDir::West);  // arrived on the West port
  h.sim.run();
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].first, LinkDir::East);  // continues eastwards
  EXPECT_EQ(h.router.counters().default_routed, 1u);
}

TEST(Router, DefaultRoutingAllDirections) {
  for (int l = 0; l < kLinksPerChip; ++l) {
    Harness h;
    const auto in = static_cast<LinkDir>(l);
    h.router.receive(mc(0x42), in);
    h.sim.run();
    ASSERT_EQ(h.out.size(), 1u);
    EXPECT_EQ(h.out[0].first, opposite(in));
  }
}

TEST(Router, LocalInjectionWithNoEntryIsDroppedToMonitor) {
  Harness h;
  h.router.receive(mc(0x77), std::nullopt);
  h.sim.run();
  EXPECT_TRUE(h.out.empty());
  EXPECT_EQ(h.router.counters().dropped_no_route, 1u);
  ASSERT_EQ(h.events.size(), 1u);
  EXPECT_EQ(h.events[0].type, RouterEventType::PacketDropped);
}

TEST(Router, HopCountIncrements) {
  Harness h;
  h.router.mc_table().add({0x1, ~0u, Route::to_core(0)});
  Packet p = mc(0x1);
  p.hops = 3;
  h.router.receive(p, LinkDir::West);
  h.sim.run();
  ASSERT_EQ(h.local.size(), 1u);
  EXPECT_EQ(h.local[0].second.hops, 4u);
}

// ---- p2p -------------------------------------------------------------------

TEST(Router, P2pFollowsTable) {
  Harness h;
  P2pTable table(4, 4);
  table.set(make_p2p_address({2, 0}), P2pHop::East);
  table.set(make_p2p_address({0, 0}), P2pHop::Local);
  h.router.p2p_table() = table;

  Packet p;
  p.type = PacketType::PointToPoint;
  p.dst = make_p2p_address({2, 0});
  h.router.receive(p, std::nullopt);
  h.sim.run();
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].first, LinkDir::East);

  Packet q;
  q.type = PacketType::PointToPoint;
  q.dst = make_p2p_address({0, 0});
  h.router.receive(q, LinkDir::East);
  h.sim.run();
  EXPECT_EQ(h.monitor.size(), 1u) << "Local hop delivers to the monitor";
}

TEST(Router, P2pUnconfiguredDrops) {
  Harness h;
  Packet p;
  p.type = PacketType::PointToPoint;
  p.dst = make_p2p_address({3, 3});
  h.router.receive(p, std::nullopt);
  h.sim.run();
  EXPECT_TRUE(h.out.empty());
  EXPECT_EQ(h.router.counters().dropped, 1u);
}

// ---- nn --------------------------------------------------------------------

TEST(Router, NnPacketsTerminateAtMonitor) {
  Harness h;
  Packet p;
  p.type = PacketType::NearestNeighbour;
  p.payload = 123;
  h.router.receive(p, LinkDir::South);
  h.sim.run();
  ASSERT_EQ(h.monitor.size(), 1u);
  EXPECT_EQ(h.monitor[0].payload, 123u);
  EXPECT_EQ(h.router.counters().nn_delivered, 1u);
}

TEST(Router, SendNnGoesOutRequestedLink) {
  Harness h;
  Packet p;
  p.payload = 55;
  h.router.send_nn(LinkDir::NorthEast, p);
  h.sim.run();
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].first, LinkDir::NorthEast);
  EXPECT_EQ(h.out[0].second.type, PacketType::NearestNeighbour);
}

// ---- blocked-output policy (§5.3, Fig. 8) ----------------------------------

TEST(Router, EmergencyRoutingDivertsAroundBlockedLink) {
  Harness h;
  h.router.mc_table().add({0x5, ~0u, Route::to_link(LinkDir::East)});
  h.router.port(LinkDir::East).fail();

  h.router.receive(mc(0x5), std::nullopt);
  h.sim.run();

  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].first, LinkDir::NorthEast)
      << "first emergency leg is anticlockwise of the blocked link";
  EXPECT_EQ(h.out[0].second.er, ErState::FirstLeg);
  EXPECT_EQ(h.router.counters().emergency_first_leg, 1u);
  // Monitor heard about it.
  ASSERT_FALSE(h.events.empty());
  EXPECT_EQ(h.events[0].type, RouterEventType::EmergencyInvoked);
}

TEST(Router, FirstLegPacketCompletesTriangleWithoutTable) {
  Harness h;  // empty table: the intermediate chip needs no entry
  Packet p = mc(0x9);
  p.er = ErState::FirstLeg;
  // It arrived on the port opposite the sender's first leg (e.g. sender
  // sent NE, so it comes in on our SW port).
  h.router.receive(p, LinkDir::SouthWest);
  h.sim.run();
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].first, LinkDir::South)
      << "second leg = one step clockwise from arrival";
  EXPECT_EQ(h.out[0].second.er, ErState::SecondLeg);
  EXPECT_EQ(h.router.counters().emergency_second_leg, 1u);
}

TEST(Router, SecondLegPacketDefaultRoutesAsIfUndiverted) {
  // After completing the triangle, the packet is at the chip it would have
  // reached over the blocked link.  With no table entry, default routing
  // must continue the *original* travel direction — not the detour's.
  Harness h;  // empty table
  Packet p = mc(0xAB);
  p.er = ErState::SecondLeg;
  // Original direction East: second leg is South, so the packet physically
  // arrives on our North port; it must leave East (as if it arrived West).
  h.router.receive(p, LinkDir::North);
  h.sim.run();
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].first, LinkDir::East);
  EXPECT_EQ(h.router.counters().default_routed, 1u);
}

TEST(Router, SecondLegPacketRoutesNormally) {
  Harness h;
  h.router.mc_table().add({0x9, ~0u, Route::to_core(4)});
  Packet p = mc(0x9);
  p.er = ErState::SecondLeg;
  h.router.receive(p, LinkDir::West);
  h.sim.run();
  ASSERT_EQ(h.local.size(), 1u);
  EXPECT_EQ(h.local[0].second.er, ErState::Normal) << "detour state cleared";
}

TEST(Router, DropsAfterBothWaitsAndTellsMonitor) {
  Harness h;
  h.router.mc_table().add({0x5, ~0u, Route::to_link(LinkDir::East)});
  // Block the primary AND the emergency leg.
  h.router.port(LinkDir::East).fail();
  h.router.port(LinkDir::NorthEast).fail();
  h.router.receive(mc(0x5), std::nullopt);
  h.sim.run();
  EXPECT_EQ(h.router.counters().dropped, 1u);
  bool dropped_event = false;
  for (const auto& e : h.events) {
    if (e.type == RouterEventType::PacketDropped) dropped_event = true;
  }
  EXPECT_TRUE(dropped_event)
      << "\"The local Monitor Processor is informed of the failure\"";
}

TEST(Router, TransientCongestionResolvesWithoutEmergency) {
  // If the output unblocks within the programmable wait, the packet goes
  // out normally (Fig. 8: "If the problem is transient the link will
  // unblock in due time, and normal flow will resume").  Here the East port
  // is merely congested (FIFO full, still draining), not dead.
  Harness h;
  h.router.mc_table().add({0x5, ~0u, Route::to_link(LinkDir::East)});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(h.router.port(LinkDir::East).try_enqueue(mc(0)));
  }
  ASSERT_TRUE(h.router.port(LinkDir::East).blocked());
  h.router.receive(mc(0x5), std::nullopt);
  h.sim.run();
  EXPECT_EQ(h.router.counters().emergency_first_leg, 0u);
  EXPECT_EQ(h.router.counters().dropped, 0u);
  // All five packets eventually left eastwards.
  int east = 0;
  for (const auto& [d, p] : h.out) {
    if (d == LinkDir::East) ++east;
  }
  EXPECT_EQ(east, 5);
}

TEST(Router, EmergencyRoutingCanBeDisabled) {
  RouterConfig cfg = fast_config();
  cfg.emergency_routing_enabled = false;
  Harness h(cfg);
  h.router.mc_table().add({0x5, ~0u, Route::to_link(LinkDir::East)});
  h.router.port(LinkDir::East).fail();
  for (int i = 0; i < 8; ++i) h.router.port(LinkDir::East).try_enqueue(mc(0));
  h.router.receive(mc(0x5), std::nullopt);
  h.sim.run();
  EXPECT_EQ(h.router.counters().emergency_first_leg, 0u);
  EXPECT_EQ(h.router.counters().dropped, 1u);
}

TEST(Router, NeverRefusesIncomingPackets) {
  // "no Router will get into a state where it persistently refuses to
  // accept incoming packets" — even with every output dead, receive()
  // accepts and eventually drops.
  Harness h;
  h.router.mc_table().add({0x5, ~0u, Route::to_link(LinkDir::East)});
  for (int l = 0; l < kLinksPerChip; ++l) {
    h.router.port(static_cast<LinkDir>(l)).fail();
  }
  for (int i = 0; i < 20; ++i) h.router.receive(mc(0x5), std::nullopt);
  h.sim.run();
  EXPECT_EQ(h.router.counters().received, 20u);
  EXPECT_EQ(h.router.counters().dropped, 20u);
}

// ---- route bitmask ---------------------------------------------------------

TEST(Route, BitmaskComposition) {
  const Route r = Route::to_link(LinkDir::East)
                      .with_link(LinkDir::South)
                      .with_core(0)
                      .with_core(19);
  EXPECT_TRUE(r.has_link(LinkDir::East));
  EXPECT_TRUE(r.has_link(LinkDir::South));
  EXPECT_FALSE(r.has_link(LinkDir::North));
  EXPECT_TRUE(r.has_core(0));
  EXPECT_TRUE(r.has_core(19));
  EXPECT_FALSE(r.has_core(10));
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(Route{}.empty());
}

TEST(Route, UnionOperator) {
  const Route a = Route::to_link(LinkDir::East);
  const Route b = Route::to_core(5);
  const Route u = a | b;
  EXPECT_TRUE(u.has_link(LinkDir::East));
  EXPECT_TRUE(u.has_core(5));
}

}  // namespace
}  // namespace spinn::router
