// Fabric-wide property tests: randomised machines, tables and traffic,
// checked against invariants rather than hand-computed expectations.
//
//  * Delivery correctness: on an uncongested fabric, every multicast packet
//    reaches exactly the cores the routing tables say it should (oracle: a
//    static walk of the tables), and nothing else.
//  * Conservation: packets are never duplicated or lost without trace —
//    deliveries + drops accounts for every copy the route fans out.
//  * Under random link failures with emergency routing, delivery only
//    degrades; no misdelivery ever happens.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/traffic.hpp"
#include "mesh/machine.hpp"
#include "sim/engine.hpp"

namespace spinn {
namespace {

struct FuzzWorld {
  sim::SerialEngine engine;
  sim::Simulator& sim = engine.root();
  mesh::Machine machine;
  Rng rng;
  // Delivery log: (core, key) counts.
  std::map<std::pair<CoreId, RoutingKey>, int> delivered;

  FuzzWorld(std::uint64_t seed, std::uint16_t dim)
      : engine(seed),
        machine(engine,
                [&] {
                  mesh::MachineConfig mc;
                  mc.width = dim;
                  mc.height = dim;
                  mc.chip.num_cores = 3;
                  mc.chip.clock_drift_ppm_sigma = 0.0;
                  mc.seed = seed;
                  return mc;
                }()),
        rng(seed * 77 + 1) {
    // A delivery probe on every app core.
    for (std::size_t i = 0; i < machine.num_chips(); ++i) {
      const ChipCoord c = machine.topology().coord_of(i);
      for (CoreIndex k = 1; k < machine.chip_at(c).num_cores(); ++k) {
        install_probe(CoreId{c, k});
      }
    }
  }

  void install_probe(CoreId id) {
    class Probe final : public chip::CoreProgram {
     public:
      Probe(FuzzWorld* world, CoreId id) : world_(world), id_(id) {}
      std::uint64_t on_packet(chip::CoreApi&,
                              const router::Packet& p) override {
        ++world_->delivered[{id_, p.key}];
        return 20;
      }

     private:
      FuzzWorld* world_;
      CoreId id_;
    };
    auto& core = machine.chip_at(id.chip).core(id.core);
    core.load_program(std::make_unique<Probe>(this, id));
    core.start();
  }

  /// Build a random multicast tree for `key` from `src` and return the
  /// cores it should reach (installing all needed table entries).
  std::set<CoreId> install_random_route(ChipCoord src, RoutingKey key,
                                        int num_dests) {
    const mesh::Topology& topo = machine.topology();
    std::set<CoreId> dests;
    while (static_cast<int>(dests.size()) < num_dests) {
      const ChipCoord c = topo.coord_of(rng.uniform_int(machine.num_chips()));
      const auto core = static_cast<CoreIndex>(
          1 + rng.uniform_int(machine.chip_at(c).num_cores() - 1));
      dests.insert(CoreId{c, core});
    }
    // Tree = union of greedy paths; entries at source, turn/branch points
    // and destinations (mirrors map::generate_routing, but independent of
    // it — tests the router, not the mapper).
    struct Node {
      std::optional<LinkDir> in;
      router::Route route;
      bool is_source = false;
    };
    std::map<ChipCoord, Node> tree;
    tree[src].is_source = true;
    for (const CoreId& d : dests) {
      tree[d.chip].route |= router::Route::to_core(d.core);
      ChipCoord cur = src;
      while (cur != d.chip) {
        const LinkDir dir = topo.next_hop(cur, d.chip);
        tree[cur].route |= router::Route::to_link(dir);
        const ChipCoord next = topo.neighbour(cur, dir);
        tree[next].in = opposite(dir);
        cur = next;
      }
    }
    for (const auto& [coord, node] : tree) {
      if (node.route.empty()) continue;
      const bool straight =
          !node.is_source && node.in.has_value() &&
          node.route == router::Route::to_link(opposite(*node.in));
      if (straight) continue;  // default routing covers it
      machine.chip_at(coord).router().mc_table().add(
          {key, ~0u, node.route});
    }
    return dests;
  }

  void inject(ChipCoord src, RoutingKey key) {
    router::Packet p;
    p.type = router::PacketType::Multicast;
    p.key = key;
    p.launched_at = sim.now();
    machine.chip_at(src).router().receive(p, std::nullopt);
  }
};

class FabricFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricFuzz, UncongestedDeliveryMatchesOracleExactly) {
  FuzzWorld world(GetParam(), 6);
  const mesh::Topology& topo = world.machine.topology();

  // A handful of random multicast routes.
  std::map<RoutingKey, std::pair<ChipCoord, std::set<CoreId>>> routes;
  for (RoutingKey key = 1; key <= 8; ++key) {
    const ChipCoord src =
        topo.coord_of(world.rng.uniform_int(world.machine.num_chips()));
    const int dests = 1 + static_cast<int>(world.rng.uniform_int(5));
    routes[key] = {src, world.install_random_route(src, key, dests)};
  }

  // Inject each key several times, spaced out (uncongested).
  const int repeats = 5;
  TimeNs t = 0;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& [key, route] : routes) {
      t += 20 * kMicrosecond;
      world.sim.at(t, [&world, key = key, src = route.first] {
        world.inject(src, key);
      });
    }
  }
  world.sim.run();

  // Oracle check: exactly `repeats` deliveries to each expected core; no
  // deliveries anywhere else.
  std::uint64_t checked = 0;
  for (const auto& [key, route] : routes) {
    for (const CoreId& d : route.second) {
      const auto it = world.delivered.find({d, key});
      ASSERT_NE(it, world.delivered.end())
          << "key " << key << " never reached " << d;
      EXPECT_EQ(it->second, repeats) << "key " << key << " at " << d;
      ++checked;
    }
  }
  std::uint64_t total_logged = 0;
  for (const auto& [k, count] : world.delivered) {
    total_logged += static_cast<std::uint64_t>(count);
  }
  std::uint64_t total_expected = 0;
  for (const auto& [key, route] : routes) {
    total_expected += repeats * route.second.size();
  }
  EXPECT_EQ(total_logged, total_expected) << "no misdeliveries allowed";
  EXPECT_EQ(world.machine.fabric_totals().dropped, 0u);
  EXPECT_GT(checked, 0u);
}

TEST_P(FabricFuzz, RandomLinkFailuresNeverCauseMisdelivery) {
  FuzzWorld world(GetParam() * 131 + 5, 6);
  const mesh::Topology& topo = world.machine.topology();

  std::map<RoutingKey, std::pair<ChipCoord, std::set<CoreId>>> routes;
  for (RoutingKey key = 1; key <= 6; ++key) {
    const ChipCoord src =
        topo.coord_of(world.rng.uniform_int(world.machine.num_chips()));
    routes[key] = {src, world.install_random_route(src, key, 3)};
  }

  // Fail a few random links.
  for (int i = 0; i < 6; ++i) {
    const ChipCoord c =
        topo.coord_of(world.rng.uniform_int(world.machine.num_chips()));
    world.machine.fail_link(
        c, static_cast<LinkDir>(world.rng.uniform_int(kLinksPerChip)));
  }

  const int repeats = 4;
  TimeNs t = 0;
  std::uint64_t sent_copies = 0;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& [key, route] : routes) {
      t += 50 * kMicrosecond;
      world.sim.at(t, [&world, key = key, src = route.first] {
        world.inject(src, key);
      });
      sent_copies += route.second.size();
    }
  }
  world.sim.run();

  // Invariant 1: every delivery is to a legitimate destination of its key.
  for (const auto& [where, count] : world.delivered) {
    const auto& [core, key] = where;
    const auto it = routes.find(key);
    ASSERT_NE(it, routes.end());
    EXPECT_TRUE(it->second.second.count(core))
        << "key " << key << " misdelivered to " << core;
    EXPECT_LE(count, repeats) << "duplicated delivery of key " << key;
  }
  // Invariant 2: conservation — deliveries never exceed expected copies,
  // and anything missing is explained by drops or dead-end detours.
  std::uint64_t total_logged = 0;
  for (const auto& [k, c] : world.delivered) total_logged += c;
  EXPECT_LE(total_logged, sent_copies);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace spinn
