// Cross-module integration tests: networks mapped onto the machine and run
// in biological real time end to end — spikes traverse the Comms NoC, the
// routers, the inter-chip links; synaptic rows come back over DMA; delays
// are re-inserted at the target (§3.2); real-time behaviour emerges.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/system.hpp"
#include "net/client.hpp"
#include "network_util.hpp"

namespace spinn {
namespace {

SystemConfig small_system(std::uint16_t w = 2, std::uint16_t h = 2) {
  SystemConfig cfg;
  cfg.machine.width = w;
  cfg.machine.height = h;
  cfg.machine.chip.num_cores = 6;
  cfg.machine.chip.clock_drift_ppm_sigma = 0.0;
  cfg.mapper.neurons_per_core = 64;
  return cfg;
}

TEST(Integration, SpikeSourceDrivesTargetThroughFabric) {
  System sys(small_system());
  // One source neuron spikes at ticks 2 and 5; strong one-to-one synapse
  // makes the single LIF target fire shortly after each.
  net::NetBuilder b;
  b.spike_source("src", {{2, 8}});
  b.lif("dst", 1);
  b.project("src", "dst", neural::Connector::one_to_one(),
            neural::ValueDist::fixed(40.0), neural::ValueDist::fixed(1.0));
  constexpr neural::PopulationId src = 0;
  constexpr neural::PopulationId dst = 1;
  const auto report = sys.load(test::compile(b.description()));
  ASSERT_TRUE(report.ok) << report.error;
  sys.run(20 * kMillisecond);

  const auto dst_base =
      report.placement.slices[report.placement.by_population[dst][0]]
          .key_base;
  const auto src_base =
      report.placement.slices[report.placement.by_population[src][0]]
          .key_base;
  EXPECT_EQ(sys.spikes().count_in_key_range(src_base, 1), 2u)
      << "source fired twice";
  EXPECT_EQ(sys.spikes().count_in_key_range(dst_base, 1), 2u)
      << "each source spike must trigger the target";
}

TEST(Integration, SynapticDelayIsReinsertedAtTarget) {
  // §3.2: the physical fabric is (biologically) instantaneous; the synaptic
  // delay must come back algorithmically.  Measure target spike time
  // relative to source spike time for two different programmed delays.
  for (const double delay_ms : {2.0, 9.0}) {
    System sys(small_system());
    net::NetBuilder b;
    b.spike_source("src", {{3}});
    b.lif("dst", 1);
    b.project("src", "dst", neural::Connector::one_to_one(),
              neural::ValueDist::fixed(40.0),
              neural::ValueDist::fixed(delay_ms));
    constexpr neural::PopulationId src = 0;
    constexpr neural::PopulationId dst = 1;
    const auto report = sys.load(test::compile(b.description()));
    ASSERT_TRUE(report.ok);
    sys.run(25 * kMillisecond);

    const auto src_base =
        report.placement.slices[report.placement.by_population[src][0]]
            .key_base;
    const auto dst_base =
        report.placement.slices[report.placement.by_population[dst][0]]
            .key_base;
    TimeNs src_time = -1, dst_time = -1;
    for (const auto& e : sys.spikes().events()) {
      if (e.key == src_base && src_time < 0) src_time = e.time;
      if (e.key == dst_base && dst_time < 0) dst_time = e.time;
    }
    ASSERT_GE(src_time, 0) << "source never fired";
    ASSERT_GE(dst_time, 0) << "target never fired (delay " << delay_ms << ")";
    const double gap_ms =
        static_cast<double>(dst_time - src_time) / kMillisecond;
    // Target integrates on the tick `delay` after arrival; allow +/-1 tick
    // of phase slack between the two chips' (unsynchronised) timers.
    EXPECT_NEAR(gap_ms, delay_ms, 1.5) << "delay " << delay_ms;
  }
}

TEST(Integration, InhibitionSuppressesFiring) {
  System sys(small_system());
  net::NetBuilder b;
  b.spike_source("drive", {{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}});
  b.lif("excited", 1);
  b.lif("inhibited", 1);
  b.project("drive", "excited", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(40.0), neural::ValueDist::fixed(1.0));
  b.project("drive", "inhibited", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(40.0), neural::ValueDist::fixed(1.0));
  // Strong inhibition arrives at the same time as the excitation.
  b.project("drive", "inhibited", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(60.0), neural::ValueDist::fixed(1.0),
            /*inhibitory=*/true);
  constexpr neural::PopulationId excited = 1;
  constexpr neural::PopulationId inhibited = 2;
  const auto report = sys.load(test::compile(b.description()));
  ASSERT_TRUE(report.ok);
  sys.run(30 * kMillisecond);
  const auto exc_base =
      report.placement.slices[report.placement.by_population[excited][0]]
          .key_base;
  const auto inh_base =
      report.placement.slices[report.placement.by_population[inhibited][0]]
          .key_base;
  // The drive fires every 2 ms; with a 2-tick refractory period the excited
  // cell tracks roughly every other drive spike.
  EXPECT_GE(sys.spikes().count_in_key_range(exc_base, 1), 5u);
  EXPECT_EQ(sys.spikes().count_in_key_range(inh_base, 1), 0u);
}

TEST(Integration, PoissonPopulationFiresAtConfiguredRate) {
  System sys(small_system());
  net::NetBuilder b;
  b.poisson("noise", 100, 50.0).record = true;  // 50 Hz x 100
  constexpr neural::PopulationId pop = 0;
  const auto report = sys.load(test::compile(b.description()));
  ASSERT_TRUE(report.ok);
  sys.run(1000 * kMillisecond);
  const auto base =
      report.placement.slices[report.placement.by_population[pop][0]]
          .key_base;
  const double count =
      static_cast<double>(sys.spikes().count_in_key_range(base, 4096));
  EXPECT_NEAR(count, 5000.0, 300.0) << "100 neurons x 50 Hz x 1 s";
}

TEST(Integration, MultiChipNetworkUsesInterChipLinks) {
  // Scatter placement forces source and destination onto different chips.
  SystemConfig cfg = small_system(3, 3);
  cfg.mapper.scatter = true;
  System sys(cfg);
  net::NetBuilder b;
  b.poisson("src", 128, 100.0);
  b.lif("dst", 128);
  b.project("src", "dst", neural::Connector::fixed_probability(0.3),
            neural::ValueDist::fixed(5.0), neural::ValueDist::fixed(1.0));
  const auto report = sys.load(test::compile(b.description()));
  ASSERT_TRUE(report.ok);
  sys.run(200 * kMillisecond);
  const auto totals = sys.fabric_totals();
  EXPECT_GT(totals.forwarded, 0u) << "traffic must cross chip boundaries";
  EXPECT_EQ(totals.dropped, 0u) << "lightly-loaded fabric drops nothing";
  EXPECT_GT(sys.spikes().count(), 0u);
}

TEST(Integration, RealTimeNoOverrunsAtModestLoad) {
  System sys(small_system());
  net::NetBuilder b;
  b.poisson("src", 64, 20.0);
  b.lif("dst", 64);
  b.project("src", "dst", neural::Connector::fixed_probability(0.1),
            neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
  ASSERT_TRUE(sys.load(test::compile(b.description())).ok);
  sys.run(100 * kMillisecond);
  std::uint64_t overruns = 0;
  for (std::uint16_t x = 0; x < 2; ++x) {
    for (std::uint16_t y = 0; y < 2; ++y) {
      overruns += sys.machine().chip_at({x, y}).total_overruns();
    }
  }
  EXPECT_EQ(overruns, 0u) << "64 neurons/core at 20 Hz is easy real time";
}

TEST(Integration, OverloadedCoreMissesDeadlines) {
  // One core, thousands of neurons, dense input: deliberately infeasible in
  // real time (the E11 regime).
  SystemConfig cfg = small_system(1, 1);
  cfg.mapper.neurons_per_core = 2000;
  System sys(cfg);
  net::NetBuilder b;
  b.poisson("src", 2000, 100.0);
  b.lif("dst", 2000);
  b.project("src", "dst", neural::Connector::fixed_probability(0.05),
            neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  ASSERT_TRUE(sys.load(test::compile(b.description())).ok);
  sys.run(50 * kMillisecond);
  EXPECT_GT(sys.machine().chip_at({0, 0}).total_overruns(), 0u);
}

TEST(Integration, EnergyAccountingProducesSaneBreakdown) {
  System sys(small_system());
  net::NetBuilder b;
  b.poisson("src", 64, 50.0);
  b.lif("dst", 64);
  b.project("src", "dst", neural::Connector::fixed_probability(0.2),
            neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
  ASSERT_TRUE(sys.load(test::compile(b.description())).ok);
  sys.run(100 * kMillisecond);
  const auto energy = sys.energy();
  EXPECT_GT(energy.core_active_j, 0.0);
  EXPECT_GT(energy.core_sleep_j, 0.0);
  EXPECT_GT(energy.sdram_j, 0.0);
  EXPECT_GT(energy.router_j, 0.0);
  EXPECT_GT(energy.total_j(), 0.0);
  // A 2x2 machine over 100 ms: average power must be fractions of a watt,
  // not kilowatts or nanowatts.
  const double watts = energy.average_watts(sys.now());
  EXPECT_GT(watts, 0.01);
  EXPECT_LT(watts, 20.0);
}

TEST(Integration, DeterministicAcrossRuns) {
  auto run_once = [] {
    System sys(small_system());
    net::NetBuilder b;
    b.poisson("src", 32, 40.0);
    b.lif("dst", 32);
    b.project("src", "dst", neural::Connector::fixed_probability(0.2),
              neural::ValueDist::fixed(3.0), neural::ValueDist::fixed(2.0));
    sys.load(test::compile(b.description()));
    sys.run(50 * kMillisecond);
    std::vector<std::pair<TimeNs, RoutingKey>> out;
    for (const auto& e : sys.spikes().events()) {
      out.emplace_back(e.time, e.key);
    }
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace spinn
