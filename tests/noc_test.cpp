// Tests for the two on-chip interconnects (Fig. 3): the System NoC's shared
// SDRAM port and the Communications NoC's core-to-router injection path.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "noc/comms_noc.hpp"
#include "noc/system_noc.hpp"
#include "sim/simulator.hpp"

namespace spinn::noc {
namespace {

// ---- System NoC --------------------------------------------------------------

TEST(SystemNoc, SingleTransferTiming) {
  sim::Simulator sim(1);
  SystemNocConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e9;
  cfg.first_word_latency_ns = 100;
  SystemNoc noc(sim, cfg);
  TimeNs done_at = -1;
  noc.transfer(1000, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, 100 + 1000);  // latency + 1000 B at 1 B/ns
  EXPECT_EQ(noc.bytes_transferred(), 1000u);
  EXPECT_EQ(noc.transfers(), 1u);
}

TEST(SystemNoc, TransfersAreServedFifo) {
  sim::Simulator sim(1);
  SystemNoc noc(sim, SystemNocConfig{});
  std::vector<int> order;
  noc.transfer(100, [&] { order.push_back(1); });
  noc.transfer(100, [&] { order.push_back(2); });
  noc.transfer(100, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SystemNoc, ContentionStretchesCompletionTimes) {
  sim::Simulator sim(1);
  SystemNocConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e9;
  cfg.first_word_latency_ns = 100;
  SystemNoc noc(sim, cfg);
  std::vector<TimeNs> completions;
  for (int i = 0; i < 4; ++i) {
    noc.transfer(10'000, [&] { completions.push_back(sim.now()); });
  }
  sim.run();
  // Serial service: each transfer takes 100 + 10000 ns, and each queued
  // one waits for all before it.
  EXPECT_EQ(completions,
            (std::vector<TimeNs>{10'100, 20'200, 30'300, 40'400}));
}

TEST(SystemNoc, BusyTimeAccumulates) {
  sim::Simulator sim(1);
  SystemNocConfig cfg;
  cfg.bandwidth_bytes_per_sec = 1e9;
  cfg.first_word_latency_ns = 50;
  SystemNoc noc(sim, cfg);
  noc.transfer(500, [] {});
  noc.transfer(500, [] {});
  sim.run();
  EXPECT_EQ(noc.busy_time(), 2 * (50 + 500));
}

TEST(SystemNoc, LateTransferStartsImmediatelyWhenIdle) {
  sim::Simulator sim(1);
  SystemNoc noc(sim, SystemNocConfig{});
  TimeNs done1 = -1, done2 = -1;
  noc.transfer(1000, [&] { done1 = sim.now(); });
  sim.run();
  sim.after(5000, [&] { noc.transfer(1000, [&] { done2 = sim.now(); }); });
  sim.run();
  EXPECT_GT(done1, 0);
  // Issued 5000 ns after the first completed; same service time, no queue.
  EXPECT_EQ(done2, done1 + 5000 + done1);
}

// ---- Comms NoC ----------------------------------------------------------------

TEST(CommsNoc, InjectionReachesRouterSink) {
  sim::Simulator sim(1);
  CommsNoc noc(sim, CommsNocConfig{});
  std::vector<router::Packet> seen;
  noc.set_router_sink([&](const router::Packet& p) { seen.push_back(p); });
  router::Packet p;
  p.key = 0x42;
  noc.inject(p);
  sim.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].key, 0x42u);
  EXPECT_EQ(noc.injected(), 1u);
}

TEST(CommsNoc, InjectionSerializedAtFabricRate) {
  sim::Simulator sim(1);
  CommsNocConfig cfg;
  cfg.bits_per_sec = 1e9;  // 40-bit packet -> 40 ns
  CommsNoc noc(sim, cfg);
  std::vector<TimeNs> arrivals;
  noc.set_router_sink(
      [&](const router::Packet&) { arrivals.push_back(sim.now()); });
  router::Packet p;
  noc.inject(p);
  noc.inject(p);
  noc.inject(p);
  sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 40);
  EXPECT_EQ(arrivals[1] - arrivals[0], 40);
  EXPECT_EQ(arrivals[2] - arrivals[1], 40);
}

TEST(CommsNoc, PayloadPacketsCostMoreFabricTime) {
  sim::Simulator sim(1);
  CommsNocConfig cfg;
  cfg.bits_per_sec = 1e9;
  CommsNoc noc(sim, cfg);
  std::vector<TimeNs> arrivals;
  noc.set_router_sink(
      [&](const router::Packet&) { arrivals.push_back(sim.now()); });
  router::Packet p;
  p.payload = 7;  // 72 bits
  noc.inject(p);
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0], 72);
}

TEST(CommsNoc, DeliveryAddsFixedLatency) {
  sim::Simulator sim(1);
  CommsNocConfig cfg;
  cfg.delivery_latency_ns = 50;
  CommsNoc noc(sim, cfg);
  CoreIndex delivered_core = 255;
  TimeNs delivered_at = -1;
  noc.set_core_sink([&](CoreIndex c, const router::Packet&) {
    delivered_core = c;
    delivered_at = sim.now();
  });
  router::Packet p;
  noc.deliver(router::CoreSet::of(7), p);
  sim.run();
  EXPECT_EQ(delivered_core, 7);
  EXPECT_EQ(delivered_at, 50);
}

TEST(CommsNoc, OneEventDeliversEveryCoreInIndexOrder) {
  sim::Simulator sim(1);
  CommsNocConfig cfg;
  cfg.delivery_latency_ns = 50;
  CommsNoc noc(sim, cfg);
  std::vector<std::pair<CoreIndex, TimeNs>> delivered;
  noc.set_core_sink([&](CoreIndex c, const router::Packet&) {
    delivered.emplace_back(c, sim.now());
  });
  router::Packet p;
  noc.deliver(router::CoreSet::of(5).with(1).with(3), p);
  EXPECT_EQ(sim.run(), 1u) << "one event for the three copies";
  EXPECT_EQ(delivered, (std::vector<std::pair<CoreIndex, TimeNs>>{
                           {1, 50}, {3, 50}, {5, 50}}));
}

TEST(CommsNoc, TwentyCoreBurstDrainsInOrder) {
  // 20 cores all spiking in the same timer tick contend for one router
  // input — the millisecond-scale burstiness §5.3 worries about.
  sim::Simulator sim(1);
  CommsNocConfig cfg;
  cfg.bits_per_sec = 1e9;
  CommsNoc noc(sim, cfg);
  std::vector<RoutingKey> order;
  noc.set_router_sink(
      [&](const router::Packet& p) { order.push_back(p.key); });
  for (RoutingKey k = 0; k < 20; ++k) {
    router::Packet p;
    p.key = k;
    noc.inject(p);
  }
  sim.run();
  ASSERT_EQ(order.size(), 20u);
  for (RoutingKey k = 0; k < 20; ++k) EXPECT_EQ(order[k], k);
  // Full burst drains in 20 x 40 ns = 800 ns << 1 ms tick.
  EXPECT_EQ(sim.now(), 800);
}

}  // namespace
}  // namespace spinn::noc
