// Tests for runtime functional migration (paper abstract: "run-time support
// for functional migration and real-time fault mitigation"): a slice moves
// from a failing core to a spare, keeping its AER identity, state and
// traffic.
#include <gtest/gtest.h>

#include "core/fault_controller.hpp"
#include "core/system.hpp"
#include "map/migration.hpp"
#include "net/client.hpp"
#include "network_util.hpp"

namespace spinn {
namespace {

SystemConfig small_system() {
  SystemConfig cfg;
  cfg.machine.width = 2;
  cfg.machine.height = 2;
  cfg.machine.chip.num_cores = 6;
  cfg.machine.chip.clock_drift_ppm_sigma = 0.0;
  cfg.mapper.neurons_per_core = 64;
  return cfg;
}

neural::Network rig_net() {
  net::NetBuilder b;
  b.poisson("src", 32, 50.0);
  b.lif("dst", 32);
  b.project("src", "dst", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
  return test::compile(b.description());
}

struct Rig {
  static constexpr neural::PopulationId src = 0;
  static constexpr neural::PopulationId dst = 1;
  System sys;
  neural::Network net = rig_net();
  map::LoadReport report;

  Rig() : sys(small_system()) { report = sys.load(net); }

  CoreId core_of(neural::PopulationId pop) {
    return report.placement
        .slices[report.placement.by_population[pop][0]]
        .core;
  }

  std::size_t dst_spikes() {
    const auto base =
        report.placement.slices[report.placement.by_population[dst][0]]
            .key_base;
    return sys.spikes().count_in_key_range(base, 1u << 11);
  }
};

TEST(Migration, FindSparePrefersSameChip) {
  Rig rig;
  ASSERT_TRUE(rig.report.ok);
  map::Migrator migrator(rig.net, rig.report.placement,
                         small_system().mapper);
  const CoreId victim = rig.core_of(rig.dst);
  const auto spare = migrator.find_spare(rig.sys.machine(), victim.chip);
  ASSERT_TRUE(spare.has_value());
  EXPECT_EQ(spare->chip, victim.chip) << "6-core chip has spare app cores";
  EXPECT_NE(*spare, victim);
  EXPECT_NE(*spare, rig.core_of(rig.src));
}

TEST(Migration, TargetSliceKeepsReceivingAfterMigration) {
  Rig rig;
  ASSERT_TRUE(rig.report.ok);
  rig.sys.run(100 * kMillisecond);
  const std::size_t before = rig.dst_spikes();
  ASSERT_GT(before, 0u);

  // The dst core starts failing: migrate its slice away mid-run.
  map::Migrator migrator(rig.net, rig.report.placement,
                         small_system().mapper);
  const CoreId victim = rig.core_of(rig.dst);
  const auto mig = migrator.migrate(rig.sys.machine(), victim);
  ASSERT_TRUE(mig.ok) << mig.error;
  EXPECT_NE(mig.to, victim);
  EXPECT_GT(mig.entries_written, 0u);

  rig.sys.run(100 * kMillisecond);
  const std::size_t after = rig.dst_spikes();
  EXPECT_GT(after, before + before / 4)
      << "the migrated population must keep firing at a comparable rate";
  // The program really moved.
  EXPECT_EQ(rig.sys.machine()
                .chip_at(victim.chip)
                .core(victim.core)
                .program(),
            nullptr);
  EXPECT_NE(
      rig.sys.machine().chip_at(mig.to.chip).core(mig.to.core).program(),
      nullptr);
}

TEST(Migration, SourceSliceKeepsSendingAfterMigration) {
  Rig rig;
  ASSERT_TRUE(rig.report.ok);
  rig.sys.run(50 * kMillisecond);
  const std::size_t before = rig.dst_spikes();

  map::Migrator migrator(rig.net, rig.report.placement,
                         small_system().mapper);
  const auto mig = migrator.migrate(rig.sys.machine(), rig.core_of(rig.src));
  ASSERT_TRUE(mig.ok) << mig.error;

  rig.sys.run(100 * kMillisecond);
  EXPECT_GT(rig.dst_spikes(), before)
      << "spikes from the migrated source still reach the target";
}

TEST(Migration, MigrationUpdatesPlacement) {
  Rig rig;
  ASSERT_TRUE(rig.report.ok);
  map::Migrator migrator(rig.net, rig.report.placement,
                         small_system().mapper);
  const CoreId victim = rig.core_of(rig.dst);
  const auto mig = migrator.migrate(rig.sys.machine(), victim);
  ASSERT_TRUE(mig.ok);
  EXPECT_EQ(rig.core_of(rig.dst), mig.to);
}

TEST(Migration, ErrorsOnEmptyCore) {
  Rig rig;
  ASSERT_TRUE(rig.report.ok);
  map::Migrator migrator(rig.net, rig.report.placement,
                         small_system().mapper);
  // Core 5 on the far chip hosts nothing.
  const auto mig =
      migrator.migrate(rig.sys.machine(), CoreId{{1, 1}, 5});
  EXPECT_FALSE(mig.ok);
}

TEST(Migration, ErrorsWhenNoSpareExists) {
  // A machine exactly as large as the network: no spare cores anywhere.
  SystemConfig cfg;
  cfg.machine.width = 1;
  cfg.machine.height = 1;
  cfg.machine.chip.num_cores = 3;  // 1 monitor-reserved + 2 app cores
  cfg.mapper.neurons_per_core = 64;
  System sys(cfg);
  net::NetBuilder nb;
  nb.poisson("a", 32, 10.0);
  nb.lif("b", 32);
  nb.project("a", "b", neural::Connector::one_to_one(),
             neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  const neural::Network net = test::compile(nb.description());
  constexpr neural::PopulationId b = 1;
  auto report = sys.load(net);
  ASSERT_TRUE(report.ok);
  map::Migrator migrator(net, report.placement, cfg.mapper);
  const CoreId victim =
      report.placement.slices[report.placement.by_population[b][0]].core;
  const auto mig = migrator.migrate(sys.machine(), victim);
  EXPECT_FALSE(mig.ok);
  EXPECT_NE(mig.error.find("spare"), std::string::npos);
}

TEST(Migration, RejectsMigratingTheMonitorCore) {
  Rig rig;
  ASSERT_TRUE(rig.report.ok);
  map::Migrator migrator(rig.net, rig.report.placement,
                         small_system().mapper);
  const ChipCoord chip{0, 0};
  // Unbooted machines have no elected monitor yet; the migrator reserves
  // core 0 (the election fallback) in that case.
  const auto elected = rig.sys.machine().chip_at(chip).monitor_core();
  const CoreIndex monitor = elected.value_or(0);
  const auto mig = migrator.migrate(rig.sys.machine(), CoreId{chip, monitor});
  EXPECT_FALSE(mig.ok);
  EXPECT_NE(mig.error.find("monitor"), std::string::npos) << mig.error;
  // The chip's operating system is untouched by the rejected request.
  EXPECT_EQ(rig.sys.machine().chip_at(chip).monitor_core(), elected);
}

TEST(Migration, NoSpareErrorQuantifiesTheExhaustion) {
  // Same machine-exactly-full rig as ErrorsWhenNoSpareExists; here the
  // point is the error's *content*: it must tell the operator how full the
  // machine is, not just that the migration lost.
  SystemConfig cfg;
  cfg.machine.width = 1;
  cfg.machine.height = 1;
  cfg.machine.chip.num_cores = 3;  // 1 monitor-reserved + 2 app cores
  cfg.mapper.neurons_per_core = 64;
  System sys(cfg);
  net::NetBuilder nb;
  nb.poisson("a", 32, 10.0);
  nb.lif("b", 32);
  nb.project("a", "b", neural::Connector::one_to_one(),
             neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  const neural::Network net = test::compile(nb.description());
  constexpr neural::PopulationId b = 1;
  auto report = sys.load(net);
  ASSERT_TRUE(report.ok);
  map::Migrator migrator(net, report.placement, cfg.mapper);
  const CoreId victim =
      report.placement.slices[report.placement.by_population[b][0]].core;
  const auto mig = migrator.migrate(sys.machine(), victim);
  ASSERT_FALSE(mig.ok);
  EXPECT_NE(mig.error.find("no spare application core available"),
            std::string::npos)
      << mig.error;
  EXPECT_NE(
      mig.error.find("2 slices resident on 2 usable app cores across 1 "
                     "alive chips"),
      std::string::npos)
      << mig.error;
}

TEST(Migration, ReconfigurationEstimateTracksEntriesWritten) {
  Rig rig;
  ASSERT_TRUE(rig.report.ok);
  map::Migrator migrator(rig.net, rig.report.placement,
                         small_system().mapper);
  const auto first = migrator.migrate(rig.sys.machine(), rig.core_of(rig.dst));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_GT(first.entries_written, 0u);
  EXPECT_GT(first.reconfiguration_estimate_ns, 0);
  // The estimate models one monitor-driven p2p table write per entry.
  EXPECT_EQ(first.reconfiguration_estimate_ns,
            static_cast<TimeNs>(first.entries_written) * kMicrosecond);
  const auto second =
      migrator.migrate(rig.sys.machine(), rig.core_of(rig.src));
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.reconfiguration_estimate_ns,
            static_cast<TimeNs>(second.entries_written) * kMicrosecond);
  // Monotone in the work done: more table entries, longer reconfiguration.
  if (first.entries_written < second.entries_written) {
    EXPECT_LT(first.reconfiguration_estimate_ns,
              second.reconfiguration_estimate_ns);
  } else if (first.entries_written > second.entries_written) {
    EXPECT_GT(first.reconfiguration_estimate_ns,
              second.reconfiguration_estimate_ns);
  } else {
    EXPECT_EQ(first.reconfiguration_estimate_ns,
              second.reconfiguration_estimate_ns);
  }
}

TEST(Migration, RepeatedMigrationsStayConsistent) {
  Rig rig;
  ASSERT_TRUE(rig.report.ok);
  map::Migrator migrator(rig.net, rig.report.placement,
                         small_system().mapper);
  rig.sys.run(30 * kMillisecond);
  for (int round = 0; round < 3; ++round) {
    const auto mig = migrator.migrate(rig.sys.machine(), rig.core_of(rig.dst));
    ASSERT_TRUE(mig.ok) << "round " << round << ": " << mig.error;
    rig.sys.run(30 * kMillisecond);
  }
  const std::size_t spikes = rig.dst_spikes();
  EXPECT_GT(spikes, 0u);
}

TEST(Migration, KillFaultCountsTheVictimsUnhandledRowReadAsLost) {
  // A silent source and an undriven target: the only traffic is the one
  // spike the test delivers.
  System sys(small_system());
  net::NetBuilder b;
  b.spike_source("src", {{}});
  b.lif("dst", 32);
  b.project("src", "dst", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
  const neural::Network net = test::compile(b.description());
  constexpr neural::PopulationId src = 0;
  constexpr neural::PopulationId dst = 1;
  map::LoadReport report = sys.load(net);
  ASSERT_TRUE(report.ok);
  sys.run(10 * kMillisecond);
  const map::PlacementResult& placement = report.placement;
  const RoutingKey key =
      placement.slices[placement.by_population[src][0]].key_base;
  const CoreId victim = placement.slices[placement.by_population[dst][0]].core;
  chip::Core& core = sys.machine().chip_at(victim.chip).core(victim.core);
  const std::uint64_t dma_events = core.stats().dma_events;

  // The spike's handler fetches its row, and a timer tick taken in the same
  // instant keeps the core busy while the row lands: the read is complete
  // but unhandled when the kill arrives 1 us later.
  FaultController faults(sys, net, report.placement, small_system().mapper,
                         /*run_base=*/0, /*seed=*/1);
  const TimeNs t = sys.now() + 500 * kMicrosecond;
  sys.simulator().at(t, [&core, key] {
    router::Packet p;
    p.type = router::PacketType::Multicast;
    p.key = key;
    core.packet_interrupt(p);
    core.timer_interrupt();
  });
  FaultAction kill;
  kill.kind = FaultAction::Kind::KillCore;
  kill.at = t + kMicrosecond;
  kill.chip = victim.chip;
  kill.core = victim.core;
  faults.schedule(kill);
  sys.run(10 * kMillisecond);

  ASSERT_EQ(faults.records().size(), 1u);
  const FaultRecord& r = faults.records()[0];
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.spikes_lost_final);
  EXPECT_EQ(core.stats().dma_events, dma_events) << "the row was never handled";
  EXPECT_EQ(r.spikes_lost, 1u);
}

}  // namespace
}  // namespace spinn
