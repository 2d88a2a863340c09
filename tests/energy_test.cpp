// Tests for the §2/§3.3 cost models and the event-granularity energy
// accounting.
#include <gtest/gtest.h>

#include "energy/cost_model.hpp"
#include "energy/energy_model.hpp"
#include "mesh/machine.hpp"
#include "sim/engine.hpp"

namespace spinn::energy {
namespace {

// ---- cost model ---------------------------------------------------------------

TEST(CostModel, PaperHeadlineRatiosHold) {
  const ProcessorSpec node = spinnaker_node();
  const ProcessorSpec desktop = desktop_cpu();
  // "a SpiNNaker chip with 20 ARM cores delivers about the same throughput
  // as a high-end desktop processor"
  EXPECT_GT(node.mips / desktop.mips, 0.5);
  EXPECT_LT(node.mips / desktop.mips, 2.0);
  // "on energy-efficiency the embedded processors win by an order of
  // magnitude"
  EXPECT_GE(mips_per_watt(node) / mips_per_watt(desktop), 10.0);
  // "On [MIPS/mm^2] embedded and high-end processors are roughly equal"
  const double area_ratio = mips_per_mm2(node) / mips_per_mm2(desktop);
  EXPECT_GT(area_ratio, 0.3);
  EXPECT_LT(area_ratio, 5.0);
}

TEST(CostModel, NodeIsTwentyArmCores) {
  EXPECT_DOUBLE_EQ(spinnaker_node().mips, 20.0 * arm968_core().mips);
}

TEST(CostModel, PcCrossoverNearThreeYears) {
  // "the energy cost of a PC equals the purchase cost after a little more
  // than three years"
  const double years = pc_ownership().energy_crossover_years();
  EXPECT_GT(years, 3.0);
  EXPECT_LT(years, 4.0);
}

TEST(CostModel, OwnershipCostIsLinearInYears) {
  const OwnershipCost pc = pc_ownership();
  EXPECT_DOUBLE_EQ(pc.total(0.0), pc.purchase_dollars);
  const double slope = pc.total(2.0) - pc.total(1.0);
  EXPECT_DOUBLE_EQ(slope, pc.power_watts * pc.dollars_per_watt_year);
}

TEST(CostModel, NodeBeatsPcOnOwnership) {
  // The paper's node: $20, <1 W, PC-class compute.
  const OwnershipCost node = spinnaker_node_ownership();
  EXPECT_LE(node.purchase_dollars, 25.0);
  EXPECT_LT(node.power_watts, 1.0);
  for (double y = 0.0; y <= 10.0; y += 1.0) {
    EXPECT_LT(node.total(y), pc_ownership().total(y));
  }
}

// ---- energy accounting ----------------------------------------------------------

mesh::MachineConfig tiny_machine() {
  mesh::MachineConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  cfg.chip.num_cores = 4;
  cfg.chip.clock_drift_ppm_sigma = 0.0;
  return cfg;
}

TEST(EnergyAccount, IdleMachineBurnsOnlySleepAndStatic) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, tiny_machine());
  sim::Simulator& sim = engine.root();
  sim.run_until(10 * kMillisecond);
  const EnergyBreakdown e = account(m, sim.now());
  EXPECT_DOUBLE_EQ(e.core_active_j, 0.0);
  EXPECT_GT(e.core_sleep_j, 0.0);
  EXPECT_GT(e.static_j, 0.0);
  EXPECT_DOUBLE_EQ(e.fabric_j, 0.0);
  EXPECT_DOUBLE_EQ(e.sdram_j, 0.0);
}

TEST(EnergyAccount, SleepEnergyScalesWithWindow) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, tiny_machine());
  sim::Simulator& sim = engine.root();
  sim.run_until(10 * kMillisecond);
  const double e10 = account(m, sim.now()).total_j();
  sim.run_until(20 * kMillisecond);
  const double e20 = account(m, sim.now()).total_j();
  EXPECT_NEAR(e20, 2.0 * e10, 1e-12);
}

TEST(EnergyAccount, FabricEnergyFollowsTraffic) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, tiny_machine());
  sim::Simulator& sim = engine.root();
  m.chip_at({0, 0}).router().mc_table().add(
      {1, ~0u, router::Route::to_link(LinkDir::East)});
  m.chip_at({1, 0}).router().mc_table().add(
      {1, ~0u, router::Route::to_core(0)});
  for (int i = 0; i < 100; ++i) {
    sim.after(i * kMicrosecond, [&m] {
      router::Packet p;
      p.key = 1;
      m.chip_at({0, 0}).router().receive(p, std::nullopt);
    });
  }
  sim.run();
  const EnergyBreakdown e = account(m, sim.now());
  EXPECT_GT(e.fabric_j, 0.0);
  EXPECT_GT(e.router_j, 0.0);
  // 100 packets x 10 off-chip symbols x 100 pJ = 100 nJ exactly.
  EXPECT_NEAR(e.fabric_j, 100.0 * 10.0 * 100e-12 +
                              100.0 * 10.0 * 1.5e-12 /*on-chip delivery*/,
              1e-9);
}

TEST(EnergyAccount, AveragePowerSane) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, tiny_machine());
  sim::Simulator& sim = engine.root();
  sim.run_until(kSecond);
  const EnergyBreakdown e = account(m, sim.now());
  // 4 chips x (4 cores x 2 mW sleep + 50 mW static) ~ 0.23 W.
  const double watts = e.average_watts(sim.now());
  EXPECT_GT(watts, 0.05);
  EXPECT_LT(watts, 1.0);
}

TEST(EnergyAccount, ParamsScaleResults) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, tiny_machine());
  sim::Simulator& sim = engine.root();
  sim.run_until(kMillisecond);
  EnergyParams cheap;
  EnergyParams pricey = cheap;
  pricey.core_sleep_watts *= 10.0;
  pricey.chip_static_watts *= 10.0;
  EXPECT_NEAR(account(m, sim.now(), pricey).total_j(),
              10.0 * account(m, sim.now(), cheap).total_j(), 1e-12);
}

}  // namespace
}  // namespace spinn::energy
