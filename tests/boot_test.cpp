// Tests for the distributed boot sequence (§5.2): election, coordinate
// flood from node (0,0), p2p table construction, flood-fill loading,
// redundancy under packet loss, and neighbour rescue.
#include <gtest/gtest.h>

#include "boot/boot_controller.hpp"
#include "mesh/machine.hpp"
#include "sim/engine.hpp"

namespace spinn::boot {
namespace {

mesh::MachineConfig small_machine(std::uint16_t w = 4, std::uint16_t h = 4) {
  mesh::MachineConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.chip.num_cores = 4;
  cfg.chip.clock_drift_ppm_sigma = 0.0;
  return cfg;
}

BootConfig small_boot() {
  BootConfig cfg;
  cfg.image_blocks = 8;
  cfg.words_per_block = 16;
  return cfg;
}

struct BootRun {
  sim::SerialEngine engine{1};
  sim::Simulator& sim = engine.root();
  mesh::Machine machine;
  BootController controller;
  BootReport report;
  bool finished = false;

  BootRun(const mesh::MachineConfig& mc, const BootConfig& bc)
      : machine(engine, mc), controller(sim, machine, bc) {}

  void run(TimeNs limit = 10 * kSecond) {
    controller.start([this](const BootReport& r) {
      report = r;
      finished = true;
    });
    while (!finished && !sim.queue().empty() && sim.now() < limit) {
      sim.queue().step();
    }
    if (!finished) report = controller.report();
  }
};

TEST(Boot, HealthyMachineBootsCompletely) {
  BootRun b(small_machine(), small_boot());
  b.run();
  ASSERT_TRUE(b.finished);
  EXPECT_TRUE(b.report.complete);
  EXPECT_EQ(b.report.chips_alive, 16u);
  EXPECT_EQ(b.report.chips_dead, 0u);
  EXPECT_GT(b.report.load_done, b.report.p2p_done);
  EXPECT_GT(b.report.p2p_done, b.report.elections_done);
}

TEST(Boot, EveryChipLearnsItsTrueCoordinates) {
  BootRun b(small_machine(5, 3), small_boot());
  b.run();
  ASSERT_TRUE(b.report.complete);
  for (std::uint16_t x = 0; x < 5; ++x) {
    for (std::uint16_t y = 0; y < 3; ++y) {
      const ChipCoord c{x, y};
      const auto assigned = b.controller.assigned_coord(c);
      ASSERT_TRUE(assigned.has_value()) << c;
      EXPECT_EQ(*assigned, c)
          << "nn flood must reproduce physical coordinates";
    }
  }
}

TEST(Boot, EveryChipLoadsTheWholeImage) {
  BootRun b(small_machine(), small_boot());
  b.run();
  ASSERT_TRUE(b.report.complete);
  for (std::uint16_t x = 0; x < 4; ++x) {
    for (std::uint16_t y = 0; y < 4; ++y) {
      EXPECT_TRUE(b.controller.chip_loaded({x, y}));
    }
  }
}

TEST(Boot, P2pTablesRouteHostTrafficAnywhere) {
  BootRun b(small_machine(), small_boot());
  b.run();
  ASSERT_TRUE(b.report.complete);
  // After boot, walk a p2p packet from (0,0) to every destination by
  // following the installed tables (like the host would via node 0,0).
  const mesh::Topology& topo = b.machine.topology();
  for (std::uint16_t x = 0; x < 4; ++x) {
    for (std::uint16_t y = 0; y < 4; ++y) {
      const ChipCoord dst{x, y};
      ChipCoord cur{0, 0};
      int hops = 0;
      while (cur != dst && hops < 32) {
        const auto hop = b.machine.chip_at(cur).router().p2p_table().get(
            make_p2p_address(dst));
        ASSERT_TRUE(router::is_link_hop(hop)) << cur << "->" << dst;
        cur = topo.neighbour(cur, router::link_of(hop));
        ++hops;
      }
      EXPECT_EQ(cur, dst);
      EXPECT_EQ(hops, topo.distance({0, 0}, dst));
      // The destination maps itself to Local.
      EXPECT_EQ(b.machine.chip_at(dst).router().p2p_table().get(
                    make_p2p_address(dst)),
                router::P2pHop::Local);
    }
  }
}

TEST(Boot, DeadChipIsDetectedAndSkipped) {
  BootRun b(small_machine(), small_boot());
  b.machine.fail_chip({2, 2});
  b.run();
  ASSERT_TRUE(b.finished);
  EXPECT_TRUE(b.report.complete);
  EXPECT_EQ(b.report.chips_alive, 15u);
  EXPECT_EQ(b.report.chips_dead, 1u);
  EXPECT_FALSE(b.controller.chip_booted({2, 2}));
  // Its neighbours still loaded fine (flood routes around the hole).
  EXPECT_TRUE(b.controller.chip_loaded({1, 2}));
  EXPECT_TRUE(b.controller.chip_loaded({3, 2}));
}

TEST(Boot, TransientlyFailedChipIsRescuedByNeighbours) {
  mesh::MachineConfig mc = small_machine();
  mc.chip.core_fail_prob = 1.0;  // every self-test fails...
  BootConfig bc = small_boot();
  bc.rescue_success_prob = 1.0;  // ...but rescue always succeeds
  // Note: with every chip failing election, no chip has a booted neighbour
  // and nothing can be rescued.  So fail only a single chip instead:
  mc.chip.core_fail_prob = 0.0;

  BootRun b(mc, bc);
  // Force one chip's election to fail by failing its cores after build.
  chip::Chip& victim = b.machine.chip_at({1, 1});
  for (CoreIndex i = 0; i < victim.num_cores(); ++i) {
    victim.core(i).mark_failed();
  }
  // mark_failed() makes self-test report failure for every core, so the
  // election yields no monitor; neighbours must rescue it.
  b.run();
  ASSERT_TRUE(b.finished);
  EXPECT_TRUE(b.report.complete);
  EXPECT_EQ(b.report.chips_rescued, 1u);
  EXPECT_TRUE(b.controller.chip_booted({1, 1}));
  EXPECT_TRUE(b.controller.chip_loaded({1, 1}));
}

TEST(Boot, P2pTablesRouteAroundDeadChips) {
  // A dead chip sits on every geometric shortest path between its two row
  // neighbours; the liveness-aware p2p tables must detour around it.
  BootRun b(small_machine(5, 1), small_boot());  // a 5-chip ring
  b.machine.fail_chip({2, 0});
  b.run();
  ASSERT_TRUE(b.report.complete);
  const mesh::Topology& topo = b.machine.topology();
  // Walk (1,0) -> (3,0): straight east would cross the corpse at (2,0).
  const ChipCoord dst{3, 0};
  ChipCoord cur{1, 0};
  int hops = 0;
  while (cur != dst && hops < 16) {
    ASSERT_FALSE(b.machine.chip_failed(cur))
        << "p2p route walked into dead chip " << cur;
    const auto hop =
        b.machine.chip_at(cur).router().p2p_table().get(make_p2p_address(dst));
    ASSERT_TRUE(router::is_link_hop(hop)) << cur;
    cur = topo.neighbour(cur, router::link_of(hop));
    ++hops;
  }
  EXPECT_EQ(cur, dst);
  // On a 5x1 ring with (2,0) dead, (1,0)->(3,0) must go the long way or
  // over the NE/SW diagonals: longer than the geometric distance of 2...
  EXPECT_GE(hops, 2);
}

TEST(Boot, UnreachableDestinationsMarkedDrop) {
  BootRun b(small_machine(), small_boot());
  b.machine.fail_chip({2, 2});
  b.run();
  ASSERT_TRUE(b.report.complete);
  // Every alive chip's table maps the dead chip to Drop.
  const auto hop = b.machine.chip_at({0, 0}).router().p2p_table().get(
      make_p2p_address({2, 2}));
  EXPECT_EQ(hop, router::P2pHop::Drop);
}

TEST(Boot, RedundancyDefeatsPacketLoss) {
  // With 20% per-hop block loss, a single forwarding round strands chips;
  // redundancy 3 should load everything.
  BootConfig lossy = small_boot();
  lossy.block_loss_prob = 0.20;
  lossy.redundancy = 3;
  BootRun b(small_machine(), lossy);
  b.run();
  ASSERT_TRUE(b.finished);
  EXPECT_TRUE(b.report.complete) << "redundant flood-fill should converge";
  EXPECT_GT(b.report.blocks_lost, 0u) << "losses must actually occur";
}

TEST(Boot, RedundancyCostsDuplicateBlocks) {
  BootConfig r1 = small_boot();
  BootConfig r3 = small_boot();
  r3.redundancy = 3;
  BootRun a(small_machine(), r1);
  a.run();
  BootRun b(small_machine(), r3);
  b.run();
  ASSERT_TRUE(a.report.complete);
  ASSERT_TRUE(b.report.complete);
  EXPECT_GT(b.report.duplicate_blocks, a.report.duplicate_blocks);
  EXPECT_GT(b.report.nn_packets_sent, a.report.nn_packets_sent);
}

TEST(Boot, LoadTimeNearlyIndependentOfMachineSize) {
  // §5.2/[15]: "load times almost independent of the size of the machine".
  auto load_phase = [&](std::uint16_t dim) {
    BootRun b(small_machine(dim, dim), small_boot());
    b.run(60 * kSecond);
    EXPECT_TRUE(b.report.complete) << dim << "x" << dim;
    return b.report.load_done - b.report.p2p_done;
  };
  const TimeNs t4 = load_phase(4);
  const TimeNs t8 = load_phase(8);
  // 4x the chips should cost well under 2x the load time.
  EXPECT_LT(static_cast<double>(t8),
            2.0 * static_cast<double>(t4));
}

TEST(Boot, ElectionPhasePrecedesEverything) {
  BootRun b(small_machine(), small_boot());
  b.run();
  ASSERT_TRUE(b.report.complete);
  EXPECT_GT(b.report.elections_done, 0);
  EXPECT_LE(b.report.elections_done, b.report.coords_done);
  EXPECT_LE(b.report.coords_done, b.report.p2p_done);
  EXPECT_LE(b.report.p2p_done, b.report.load_done);
}

}  // namespace
}  // namespace spinn::boot
