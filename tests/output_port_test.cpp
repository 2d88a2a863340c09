// Tests for the router output-port model: serialization timing, blocking
// backpressure, and link fault injection.
#include <gtest/gtest.h>

#include <vector>

#include "router/output_port.hpp"
#include "sim/simulator.hpp"

namespace spinn::router {
namespace {

OutputPortConfig test_config() {
  OutputPortConfig cfg;
  cfg.fifo_depth = 4;
  cfg.bits_per_sec = 250e6;  // 40-bit packet -> 160 ns serialization
  cfg.flight_ns = 10;
  return cfg;
}

Packet mc_packet(RoutingKey key) {
  Packet p;
  p.type = PacketType::Multicast;
  p.key = key;
  return p;
}

TEST(OutputPort, DeliversAtDeparture) {
  // The sink runs at wire departure; the flight is the wiring's.
  sim::Simulator sim(1);
  OutputPort port(sim, test_config());
  std::vector<TimeNs> departures;
  port.set_sink([&](const Packet&) { departures.push_back(sim.now()); });
  ASSERT_TRUE(port.try_enqueue(mc_packet(1)));
  sim.run();
  ASSERT_EQ(departures.size(), 1u);
  EXPECT_EQ(departures[0], 160);  // 40 bits at 250 Mb/s
}

TEST(OutputPort, PayloadPacketsDepartLater) {
  sim::Simulator sim(1);
  OutputPort port(sim, test_config());
  std::vector<TimeNs> departures;
  port.set_sink([&](const Packet&) { departures.push_back(sim.now()); });
  Packet p = mc_packet(1);
  p.payload = 0xDEADBEEF;  // 72 bits -> 288 ns
  ASSERT_TRUE(port.try_enqueue(p));
  sim.run();
  ASSERT_EQ(departures.size(), 1u);
  EXPECT_EQ(departures[0], 288);
}

TEST(OutputPort, SerializesBackToBack) {
  sim::Simulator sim(1);
  OutputPort port(sim, test_config());
  std::vector<TimeNs> arrivals;
  port.set_sink([&](const Packet&) { arrivals.push_back(sim.now()); });
  ASSERT_TRUE(port.try_enqueue(mc_packet(1)));
  ASSERT_TRUE(port.try_enqueue(mc_packet(2)));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1] - arrivals[0], 160);  // one serialization apart
}

TEST(OutputPort, BlocksWhenFull) {
  sim::Simulator sim(1);
  OutputPort port(sim, test_config());
  port.set_sink([](const Packet&) {});
  // depth 4: one in service + 3 queued.
  EXPECT_TRUE(port.try_enqueue(mc_packet(1)));
  EXPECT_TRUE(port.try_enqueue(mc_packet(2)));
  EXPECT_TRUE(port.try_enqueue(mc_packet(3)));
  EXPECT_TRUE(port.try_enqueue(mc_packet(4)));
  EXPECT_TRUE(port.blocked());
  EXPECT_FALSE(port.try_enqueue(mc_packet(5)));
  // After one serialization completes there is room again.
  sim.run_until(200);
  EXPECT_TRUE(port.try_enqueue(mc_packet(6)));
}

TEST(OutputPort, FailedLinkRefusesNewWork) {
  // §5.3: the router senses a dead link because the output stage stops
  // accepting packets — the emergency-routing timer starts from here.
  sim::Simulator sim(1);
  OutputPort port(sim, test_config());
  port.fail();
  EXPECT_FALSE(port.try_enqueue(mc_packet(1)));
  EXPECT_TRUE(port.failed());
}

TEST(OutputPort, PacketsQueuedBeforeFailureAreHeldNotLost) {
  sim::Simulator sim(1);
  OutputPort port(sim, test_config());
  int delivered = 0;
  port.set_sink([&](const Packet&) { ++delivered; });
  port.try_enqueue(mc_packet(1));
  port.try_enqueue(mc_packet(2));
  port.fail();  // dies before serialization completes
  sim.run_until(10'000);
  EXPECT_EQ(delivered, 0);
  port.repair();
  sim.run_until(20'000);
  EXPECT_EQ(delivered, 2) << "held packets flow once the link is repaired";
  EXPECT_EQ(port.sent(), 2u);
}

TEST(OutputPort, FailureMidServiceRetainsPacket) {
  sim::Simulator sim(1);
  OutputPort port(sim, test_config());
  int delivered = 0;
  port.set_sink([&](const Packet&) { ++delivered; });
  port.try_enqueue(mc_packet(1));
  sim.after(50, [&] { port.fail(); });  // mid-serialization
  sim.run_until(5'000);
  EXPECT_EQ(delivered, 0);
  port.repair();
  sim.run_until(10'000);
  EXPECT_EQ(delivered, 1) << "the in-flight packet resumes after repair";
}

}  // namespace
}  // namespace spinn::router
