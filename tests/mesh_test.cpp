// Tests for the assembled machine: inter-chip wiring, multicast across the
// fabric, link/chip fault injection, and fabric counters.
#include <gtest/gtest.h>

#include <memory>

#include "core/traffic.hpp"
#include "mesh/machine.hpp"
#include "sim/engine.hpp"

namespace spinn::mesh {
namespace {

MachineConfig small_machine(std::uint16_t w = 4, std::uint16_t h = 4) {
  MachineConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.chip.num_cores = 4;
  cfg.chip.clock_drift_ppm_sigma = 0.0;
  return cfg;
}

/// Install a one-entry table on each chip along a path.
void add_entry(Machine& m, ChipCoord c, RoutingKey key, router::Route route) {
  m.chip_at(c).router().mc_table().add({key, ~0u, route});
}

struct Sink {
  core::LatencyProbe* program = nullptr;
};

Sink attach_sink(Machine& m, ChipCoord c, CoreIndex core) {
  auto prog = std::make_unique<core::LatencyProbe>(nullptr);
  Sink s{prog.get()};
  m.chip_at(c).core(core).load_program(std::move(prog));
  m.chip_at(c).core(core).start();
  return s;
}

TEST(Machine, PacketCrossesOneLink) {
  sim::SerialEngine engine(1);
  Machine m(engine, small_machine());
  sim::Simulator& sim = engine.root();
  // Route key 7 east from (0,0); deliver to core 1 at (1,0).
  add_entry(m, {0, 0}, 7, router::Route::to_link(LinkDir::East));
  add_entry(m, {1, 0}, 7, router::Route::to_core(1));
  const Sink sink = attach_sink(m, {1, 0}, 1);
  sim.run();

  router::Packet p;
  p.type = router::PacketType::Multicast;
  p.key = 7;
  p.launched_at = sim.now();
  m.chip_at({0, 0}).router().receive(p, std::nullopt);
  sim.run();
  EXPECT_EQ(sink.program->received(), 1u);
  // Router pipeline 100 + serialization 160 (40 bits at 250 Mb/s) + link
  // flight 10 + far router pipeline 100 + Comms NoC delivery 50.
  EXPECT_EQ(sink.program->max(), 420);
}

TEST(Machine, DefaultRoutingCarriesPacketAlongARow) {
  sim::SerialEngine engine(1);
  Machine m(engine, small_machine(6, 1));
  sim::Simulator& sim = engine.root();
  // Only the source and destination chips hold entries; the four chips in
  // between rely on default routing (the §5.3 table-compression trick).
  add_entry(m, {0, 0}, 9, router::Route::to_link(LinkDir::East));
  add_entry(m, {5, 0}, 9, router::Route::to_core(2));
  const Sink sink = attach_sink(m, {5, 0}, 2);
  sim.run();

  router::Packet p;
  p.type = router::PacketType::Multicast;
  p.key = 9;
  m.chip_at({0, 0}).router().receive(p, std::nullopt);
  sim.run();
  EXPECT_EQ(sink.program->received(), 1u);
  const auto totals = m.fabric_totals();
  EXPECT_EQ(totals.default_routed, 4u) << "intermediate chips default-route";
}

TEST(Machine, MulticastFanOutDeliversToSeveralChips) {
  sim::SerialEngine engine(1);
  Machine m(engine, small_machine());
  sim::Simulator& sim = engine.root();
  add_entry(m, {0, 0}, 3,
            router::Route::to_link(LinkDir::East)
                .with_link(LinkDir::North)
                .with_core(1));
  add_entry(m, {1, 0}, 3, router::Route::to_core(1));
  add_entry(m, {0, 1}, 3, router::Route::to_core(1));
  const Sink s0 = attach_sink(m, {0, 0}, 1);
  const Sink s1 = attach_sink(m, {1, 0}, 1);
  const Sink s2 = attach_sink(m, {0, 1}, 1);
  sim.run();

  router::Packet p;
  p.type = router::PacketType::Multicast;
  p.key = 3;
  m.chip_at({0, 0}).router().receive(p, std::nullopt);
  sim.run();
  EXPECT_EQ(s0.program->received(), 1u);
  EXPECT_EQ(s1.program->received(), 1u);
  EXPECT_EQ(s2.program->received(), 1u);
}

TEST(Machine, WrapAroundLinksWork) {
  sim::SerialEngine engine(1);
  Machine m(engine, small_machine());
  sim::Simulator& sim = engine.root();
  add_entry(m, {3, 0}, 5, router::Route::to_link(LinkDir::East));  // wraps
  add_entry(m, {0, 0}, 5, router::Route::to_core(1));
  const Sink sink = attach_sink(m, {0, 0}, 1);
  sim.run();

  router::Packet p;
  p.type = router::PacketType::Multicast;
  p.key = 5;
  m.chip_at({3, 0}).router().receive(p, std::nullopt);
  sim.run();
  EXPECT_EQ(sink.program->received(), 1u);
}

TEST(Machine, EmergencyRoutingHealsSingleLinkFailure) {
  sim::SerialEngine engine(1);
  Machine m(engine, small_machine());
  sim::Simulator& sim = engine.root();
  add_entry(m, {0, 0}, 11, router::Route::to_link(LinkDir::East));
  add_entry(m, {1, 0}, 11, router::Route::to_core(1));
  const Sink sink = attach_sink(m, {1, 0}, 1);
  sim.run();

  m.fail_link({0, 0}, LinkDir::East);
  router::Packet p;
  p.type = router::PacketType::Multicast;
  p.key = 11;
  m.chip_at({0, 0}).router().receive(p, std::nullopt);
  sim.run();

  EXPECT_EQ(sink.program->received(), 1u)
      << "packet must arrive via the NE+S triangle detour";
  const auto totals = m.fabric_totals();
  EXPECT_EQ(totals.emergency_first_leg, 1u);
  EXPECT_EQ(totals.emergency_second_leg, 1u);
  EXPECT_EQ(totals.dropped, 0u);
}

TEST(Machine, FailedChipSwallowsTraffic) {
  sim::SerialEngine engine(1);
  Machine m(engine, small_machine(6, 1));
  sim::Simulator& sim = engine.root();
  add_entry(m, {0, 0}, 9, router::Route::to_link(LinkDir::East));
  add_entry(m, {5, 0}, 9, router::Route::to_core(2));
  const Sink sink = attach_sink(m, {5, 0}, 2);
  sim.run();

  m.fail_chip({2, 0});
  router::Packet p;
  p.type = router::PacketType::Multicast;
  p.key = 9;
  m.chip_at({0, 0}).router().receive(p, std::nullopt);
  sim.run();
  EXPECT_EQ(sink.program->received(), 0u);
  EXPECT_TRUE(m.chip_failed({2, 0}));
}

TEST(Machine, LinkRepairRestoresNormalPath) {
  sim::SerialEngine engine(1);
  Machine m(engine, small_machine());
  sim::Simulator& sim = engine.root();
  add_entry(m, {0, 0}, 11, router::Route::to_link(LinkDir::East));
  add_entry(m, {1, 0}, 11, router::Route::to_core(1));
  const Sink sink = attach_sink(m, {1, 0}, 1);
  sim.run();

  m.fail_link({0, 0}, LinkDir::East);
  m.repair_link({0, 0}, LinkDir::East);
  router::Packet p;
  p.type = router::PacketType::Multicast;
  p.key = 11;
  m.chip_at({0, 0}).router().receive(p, std::nullopt);
  sim.run();
  EXPECT_EQ(sink.program->received(), 1u);
  EXPECT_EQ(m.fabric_totals().emergency_first_leg, 0u);
}

TEST(Machine, ArrivalPortIsOppositeOfTravelDirection) {
  // Structural check of the wiring: a packet sent out East with no entry at
  // the neighbour continues East (default route = straight line).
  sim::SerialEngine engine(1);
  Machine m(engine, small_machine(3, 1));
  sim::Simulator& sim = engine.root();
  add_entry(m, {0, 0}, 1, router::Route::to_link(LinkDir::East));
  add_entry(m, {2, 0}, 1, router::Route::to_core(0));
  const Sink sink = attach_sink(m, {2, 0}, 0);
  sim.run();
  router::Packet p;
  p.type = router::PacketType::Multicast;
  p.key = 1;
  m.chip_at({0, 0}).router().receive(p, std::nullopt);
  sim.run();
  EXPECT_EQ(sink.program->received(), 1u);
}

TEST(Machine, HostLinkRoundTrip) {
  sim::SerialEngine engine(1);
  Machine m(engine, small_machine());
  sim::Simulator& sim = engine.root();
  int node_frames = 0;
  int host_frames = 0;
  m.chip_at({0, 0}).set_monitor_packet_handler(
      [&](const router::Packet&) { ++node_frames; });
  m.host_link().set_to_node([&](const router::Packet& p) {
    ++node_frames;
    m.host_link().send_to_host(p);
  });
  m.host_link().set_to_host([&](const router::Packet&) { ++host_frames; });

  router::Packet p;
  p.payload = 42;
  m.host_link().send_to_node(p);
  sim.run();
  EXPECT_EQ(node_frames, 1);
  EXPECT_EQ(host_frames, 1);
  EXPECT_EQ(m.host_link().frames_to_node(), 1u);
  EXPECT_EQ(m.host_link().frames_to_host(), 1u);
}

TEST(Machine, FabricTotalsAggregate) {
  sim::SerialEngine engine(1);
  Machine m(engine, small_machine(2, 2));
  sim::Simulator& sim = engine.root();
  add_entry(m, {0, 0}, 2, router::Route::to_link(LinkDir::East));
  add_entry(m, {1, 0}, 2, router::Route::to_core(0));
  attach_sink(m, {1, 0}, 0);
  sim.run();
  // Space the injections out so the East port never saturates (a burst
  // would legitimately trigger emergency routing and skew the counters).
  for (int i = 0; i < 10; ++i) {
    sim.after(i * kMicrosecond, [&m] {
      router::Packet p;
      p.type = router::PacketType::Multicast;
      p.key = 2;
      m.chip_at({0, 0}).router().receive(p, std::nullopt);
    });
  }
  sim.run();
  const auto totals = m.fabric_totals();
  EXPECT_EQ(totals.received, 20u);  // 10 at source + 10 at destination
  EXPECT_EQ(totals.forwarded, 10u);
  EXPECT_EQ(totals.delivered_local, 10u);
  EXPECT_EQ(totals.emergency_first_leg, 0u);
}

}  // namespace
}  // namespace spinn::mesh
