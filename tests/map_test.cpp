// Tests for the design-automation stack (§5.3): placement, key allocation,
// multicast routing-table generation with default-route compression, and
// key/mask table minimisation.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/rng_stream.hpp"
#include "core/system.hpp"
#include "map/loader.hpp"
#include "map/placement.hpp"
#include "map/routing_gen.hpp"
#include "mesh/machine.hpp"
#include "net/client.hpp"
#include "network_util.hpp"
#include "sim/engine.hpp"

namespace spinn::map {
namespace {

mesh::MachineConfig machine_config(std::uint16_t w = 4, std::uint16_t h = 4,
                                   CoreIndex cores = 5) {
  mesh::MachineConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.chip.num_cores = cores;
  cfg.chip.clock_drift_ppm_sigma = 0.0;
  return cfg;
}

// ---- placement ---------------------------------------------------------------

TEST(Placement, SlicesCoverPopulationExactly) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config());
  net::NetBuilder b;
  b.lif("big", 1000);
  const neural::Network net = test::compile(b.description());
  MapperConfig cfg;
  cfg.neurons_per_core = 256;
  const PlacementResult placement = place(net, m, cfg);
  ASSERT_TRUE(placement.fits);
  ASSERT_EQ(placement.slices.size(), 4u);  // 256+256+256+232
  std::uint32_t covered = 0;
  std::uint32_t next = 0;
  for (const Slice& s : placement.slices) {
    EXPECT_EQ(s.first_neuron, next);
    next += s.num_neurons;
    covered += s.num_neurons;
    EXPECT_LE(s.num_neurons, 256u);
  }
  EXPECT_EQ(covered, 1000u);
}

TEST(Placement, DistinctCoresAndKeyBases) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config());
  net::NetBuilder b;
  b.lif("a", 600);
  b.lif("b", 600);
  const neural::Network net = test::compile(b.description());
  const PlacementResult placement = place(net, m, MapperConfig{});
  ASSERT_TRUE(placement.fits);
  std::set<CoreId> cores;
  std::set<RoutingKey> keys;
  for (const Slice& s : placement.slices) {
    EXPECT_TRUE(cores.insert(s.core).second) << "core reused";
    EXPECT_TRUE(keys.insert(s.key_base).second) << "key base reused";
    EXPECT_EQ(s.key_base & ~kSliceKeyMask, 0u)
        << "key base must be aligned to the slice key space";
  }
}

TEST(Placement, ReservesMonitorCore) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config(1, 1, 3));
  // Elect core 2 as monitor by force.
  m.chip_at({0, 0}).system_controller().force_monitor(2);
  net::NetBuilder b;
  b.lif("a", 2 * 256);
  const neural::Network net = test::compile(b.description());
  const PlacementResult placement = place(net, m, MapperConfig{});
  ASSERT_TRUE(placement.fits);
  for (const Slice& s : placement.slices) {
    EXPECT_NE(s.core.core, 2) << "monitor core must stay free";
  }
}

TEST(Placement, FailedCoresSkipped) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config(1, 1, 4));
  m.chip_at({0, 0}).core(1).mark_failed();
  net::NetBuilder b;
  b.lif("a", 512);
  const neural::Network net = test::compile(b.description());
  const PlacementResult placement = place(net, m, MapperConfig{});
  ASSERT_TRUE(placement.fits);
  for (const Slice& s : placement.slices) {
    EXPECT_NE(s.core.core, 1);
  }
}

TEST(Placement, ReportsWhenMachineTooSmall) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config(1, 1, 2));  // 1 app core
  net::NetBuilder b;
  b.lif("a", 10'000);
  const neural::Network net = test::compile(b.description());
  const PlacementResult placement = place(net, m, MapperConfig{});
  EXPECT_FALSE(placement.fits);
}

TEST(Placement, ScatterSpreadsAcrossChips) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config(4, 4, 5));
  net::NetBuilder b;
  b.lif("a", 4 * 256);
  const neural::Network net = test::compile(b.description());
  MapperConfig packed;
  MapperConfig scattered;
  scattered.scatter = true;
  const auto p1 = place(net, m, packed);
  const auto p2 = place(net, m, scattered);
  ASSERT_TRUE(p1.fits);
  ASSERT_TRUE(p2.fits);
  EXPECT_LE(p1.chips_used, p2.chips_used)
      << "scatter must not use fewer chips than packing";
}

TEST(Placement, SliceOfFindsOwner) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config());
  net::NetBuilder b;
  b.lif("a", 300);
  const neural::Network net = test::compile(b.description());
  constexpr neural::PopulationId a = 0;
  const PlacementResult placement = place(net, m, MapperConfig{});
  const auto s0 = slice_of(placement, a, 0);
  const auto s299 = slice_of(placement, a, 299);
  ASSERT_TRUE(s0.has_value());
  ASSERT_TRUE(s299.has_value());
  EXPECT_NE(*s0, *s299);
  EXPECT_FALSE(slice_of(placement, a, 300).has_value());
}

// ---- routing generation --------------------------------------------------------

/// Follow the generated tables (plus default routing) from a source chip
/// and collect every (chip, core) the key reaches.
std::set<CoreId> walk_route(const RoutingResult& routing,
                            const mesh::Topology& topo, ChipCoord source,
                            RoutingKey key) {
  std::set<CoreId> delivered;

  struct Hop {
    ChipCoord chip;
    std::optional<LinkDir> in;
  };
  std::vector<Hop> frontier{{source, std::nullopt}};
  int guard = 0;
  while (!frontier.empty() && guard++ < 10'000) {
    const Hop hop = frontier.back();
    frontier.pop_back();
    // Find the chip's matching entry.
    std::optional<router::Route> route;
    const auto it = routing.tables.find(hop.chip);
    if (it != routing.tables.end()) {
      for (const router::McEntry& e : it->second) {
        if ((key & e.mask) == e.key) {
          route = e.route;
          break;
        }
      }
    }
    if (!route.has_value()) {
      if (!hop.in.has_value()) continue;  // locally injected, no entry: drop
      route = router::Route::to_link(opposite(*hop.in));  // default route
    }
    for (int l = 0; l < kLinksPerChip; ++l) {
      const auto d = static_cast<LinkDir>(l);
      if (route->has_link(d)) {
        frontier.push_back(Hop{topo.neighbour(hop.chip, d), opposite(d)});
      }
    }
    for (CoreIndex c = 0; c < kCoresPerChip; ++c) {
      if (route->has_core(c)) delivered.insert(CoreId{hop.chip, c});
    }
  }
  return delivered;
}

neural::Network routed_net() {
  net::NetBuilder b;
  b.poisson("src", 600, 10.0);
  b.lif("mid", 600);
  b.lif("dst", 300);
  b.project("src", "mid", neural::Connector::fixed_probability(0.1),
            neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  b.project("mid", "dst", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(0.5), neural::ValueDist::fixed(2.0));
  b.project("mid", "mid", neural::Connector::fixed_probability(0.05),
            neural::ValueDist::fixed(0.2), neural::ValueDist::fixed(1.0),
            /*inhibitory=*/true);
  return test::compile(b.description());
}

struct RoutedNetwork {
  sim::SerialEngine engine{1};
  mesh::Machine machine;
  neural::Network net = routed_net();
  PlacementResult placement;
  RoutingResult routing;

  explicit RoutedNetwork(const MapperConfig& cfg,
                         std::uint16_t w = 6, std::uint16_t h = 6,
                         CoreIndex cores = 6)
      : machine(engine, machine_config(w, h, cores)) {
    placement = place(net, machine, cfg);
    routing = generate_routing(net, placement, machine.topology(), cfg);
  }
};

TEST(Routing, EverySliceReachesExactlyItsDestinations) {
  MapperConfig cfg;
  RoutedNetwork rn(cfg);
  ASSERT_TRUE(rn.placement.fits);
  for (std::size_t si = 0; si < rn.placement.slices.size(); ++si) {
    const Slice& s = rn.placement.slices[si];
    const auto expected_vec = destinations_of(rn.net, rn.placement, si);
    const std::set<CoreId> expected(expected_vec.begin(), expected_vec.end());
    const std::set<CoreId> reached = walk_route(
        rn.routing, rn.machine.topology(), s.core.chip, s.key_base);
    EXPECT_EQ(reached, expected) << "slice " << si;
    // Also check a key in the middle of the slice's range.
    const std::set<CoreId> reached_mid =
        walk_route(rn.routing, rn.machine.topology(), s.core.chip,
                   s.key_base + s.num_neurons / 2);
    EXPECT_EQ(reached_mid, expected);
  }
}

TEST(Routing, DefaultRouteCompressionShrinksTables) {
  // One application core per chip spreads the slices out, giving the long
  // straight path segments that default routing elides.
  MapperConfig with;
  with.default_route_compression = true;
  with.minimize_tables = false;
  MapperConfig without;
  without.default_route_compression = false;
  without.minimize_tables = false;
  RoutedNetwork a(with, 6, 6, 2);
  RoutedNetwork b(without, 6, 6, 2);
  EXPECT_LT(a.routing.stats.entries_total, b.routing.stats.entries_total);
  EXPECT_GT(a.routing.stats.entries_saved_by_default_route, 0u);
}

TEST(Routing, CompressionPreservesDeliveries) {
  MapperConfig with;
  with.default_route_compression = true;
  MapperConfig without;
  without.default_route_compression = false;
  RoutedNetwork a(with, 6, 6, 2);
  RoutedNetwork b(without, 6, 6, 2);
  for (std::size_t si = 0; si < a.placement.slices.size(); ++si) {
    const Slice& s = a.placement.slices[si];
    EXPECT_EQ(walk_route(a.routing, a.machine.topology(), s.core.chip,
                         s.key_base),
              walk_route(b.routing, b.machine.topology(), s.core.chip,
                         s.key_base))
        << "slice " << si;
  }
}

TEST(Routing, MinimizationShrinksOrEqualsAndPreservesSemantics) {
  MapperConfig raw;
  raw.minimize_tables = false;
  MapperConfig mini;
  mini.minimize_tables = true;
  RoutedNetwork a(raw);
  RoutedNetwork b(mini);
  EXPECT_LE(b.routing.stats.entries_total, a.routing.stats.entries_total);
  for (std::size_t si = 0; si < a.placement.slices.size(); ++si) {
    const Slice& s = a.placement.slices[si];
    for (const RoutingKey probe :
         {s.key_base, s.key_base + 1, s.key_base + s.num_neurons - 1}) {
      EXPECT_EQ(
          walk_route(a.routing, a.machine.topology(), s.core.chip, probe),
          walk_route(b.routing, b.machine.topology(), s.core.chip, probe));
    }
  }
}

TEST(Minimize, MergesSiblingEntries) {
  std::vector<router::McEntry> entries{
      {0x0000, 0xF800, router::Route::to_link(LinkDir::East)},
      {0x0800, 0xF800, router::Route::to_link(LinkDir::East)},
  };
  const auto merged = minimize_entries(entries);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].key, 0x0000u);
  EXPECT_EQ(merged[0].mask, 0xF000u);
  // Both original keys still match.
  EXPECT_EQ(0x0000u & merged[0].mask, merged[0].key);
  EXPECT_EQ(0x0800u & merged[0].mask, merged[0].key);
}

TEST(Minimize, DoesNotMergeDifferentRoutes) {
  std::vector<router::McEntry> entries{
      {0x0000, 0xF800, router::Route::to_link(LinkDir::East)},
      {0x0800, 0xF800, router::Route::to_link(LinkDir::West)},
  };
  EXPECT_EQ(minimize_entries(entries).size(), 2u);
}

TEST(Minimize, CascadesMerges) {
  const router::Route r = router::Route::to_core(1);
  std::vector<router::McEntry> entries{
      {0x0000, 0xF800, r},
      {0x0800, 0xF800, r},
      {0x1000, 0xF800, r},
      {0x1800, 0xF800, r},
  };
  const auto merged = minimize_entries(entries);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].mask, 0xE000u);
}

TEST(InstallTables, WritesEachChipsEntriesInOrder) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config());
  const router::Route r = router::Route::to_core(1);
  ChipTables tables;
  tables[{0, 0}] = {{0x0000, 0xF800, r}, {0x0800, 0xF800, r}};
  tables[{1, 2}] = {{0x1000, 0xF800, r}};
  const TableInstall installed = install_tables(tables, m);
  EXPECT_TRUE(installed.ok);
  EXPECT_EQ(installed.routers, 2u);
  EXPECT_EQ(installed.entries, 3u);
  const auto& first = m.chip_at({0, 0}).router().mc_table().entries();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].key, 0x0000u);
  EXPECT_EQ(first[1].key, 0x0800u);
  EXPECT_EQ(m.chip_at({1, 2}).router().mc_table().size(), 1u);
  EXPECT_EQ(m.chip_at({1, 1}).router().mc_table().size(), 0u);
}

TEST(InstallTables, StopsAtTheEntryAFullTableRefuses) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config());
  constexpr std::size_t kCapacity = router::MulticastTable::kCapacity;
  ChipTables tables;
  std::vector<router::McEntry>& entries = tables[{2, 1}];
  for (std::size_t i = 0; i <= kCapacity; ++i) {
    entries.push_back({static_cast<RoutingKey>(i << kNeuronKeyBits),
                       kSliceKeyMask, router::Route::to_core(1)});
  }
  const TableInstall installed = install_tables(tables, m);
  EXPECT_FALSE(installed.ok);
  EXPECT_EQ(installed.routers, 0u);
  EXPECT_EQ(installed.entries, kCapacity);
  const router::MulticastTable& table = m.chip_at({2, 1}).router().mc_table();
  EXPECT_TRUE(table.full());
  EXPECT_EQ(table.entries().back().key,
            static_cast<RoutingKey>((kCapacity - 1) << kNeuronKeyBits));
}

// ---- loader ---------------------------------------------------------------------

TEST(Loader, BuildsRowsAndInstallsPrograms) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config());
  net::NetBuilder nb;
  nb.lif("a", 20);
  nb.lif("b", 20);
  nb.project("a", "b", neural::Connector::one_to_one(),
             neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(3.0));
  const neural::Network net = test::compile(nb.description());
  constexpr neural::PopulationId a = 0;
  constexpr neural::PopulationId b = 1;
  Loader loader(MapperConfig{});
  neural::SpikeRecorder rec;
  Rng rng(9);
  const LoadReport report = loader.load(net, m, &rec, rng);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.total_synapses, 20u);
  EXPECT_EQ(report.total_rows, 20u);
  EXPECT_GT(report.sdram_bytes, 0u);
  ASSERT_EQ(loader.apps().size(), 2u);
  // The b-side app holds one row per source neuron, keyed by a's key space.
  const RoutingKey b_key_base =
      report.placement.slices[report.placement.by_population[b][0]].key_base;
  const RoutingKey a_key_base =
      report.placement.slices[report.placement.by_population[a][0]].key_base;
  neural::NeuronApp* b_app = nullptr;
  for (auto* app : loader.apps()) {
    if (app->config().key_base == b_key_base) b_app = app;
  }
  ASSERT_NE(b_app, nullptr);
  EXPECT_EQ(b_app->rows().num_rows(), 20u);
  const neural::SynapticRow row = b_app->rows().find(a_key_base + 7);
  ASSERT_EQ(row.synapses.size(), 1u);
  EXPECT_EQ(row.synapses[0].target, 7u);
  EXPECT_EQ(row.synapses[0].delay, 3u);
  EXPECT_NEAR(row.synapses[0].weight().to_double(), 2.0, 0.01);
}

TEST(Loader, AllToAllSynapseCount) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config());
  net::NetBuilder b;
  b.lif("a", 30);
  b.lif("b", 40);
  b.project("a", "b", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  const neural::Network net = test::compile(b.description());
  Loader loader(MapperConfig{});
  Rng rng(3);
  const LoadReport report = loader.load(net, m, nullptr, rng);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.total_synapses, 30u * 40u);
}

TEST(Loader, SelfConnectionsExcludedByDefault) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config());
  net::NetBuilder b;
  b.lif("a", 25);
  b.project("a", "a", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  const neural::Network net = test::compile(b.description());
  Loader loader(MapperConfig{});
  Rng rng(3);
  const LoadReport report = loader.load(net, m, nullptr, rng);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.total_synapses, 25u * 24u);
}

TEST(Loader, FixedProbabilityDensityApproximatelyRight) {
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config(6, 6, 6));
  net::NetBuilder b;
  b.lif("a", 200);
  b.lif("b", 200);
  b.project("a", "b", neural::Connector::fixed_probability(0.1),
            neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  const neural::Network net = test::compile(b.description());
  Loader loader(MapperConfig{});
  Rng rng(5);
  const LoadReport report = loader.load(net, m, nullptr, rng);
  ASSERT_TRUE(report.ok);
  const double expected = 200.0 * 200.0 * 0.1;
  EXPECT_NEAR(static_cast<double>(report.total_synapses), expected,
              expected * 0.15);
}

TEST(Loader, DrawsEachSynapseDelayThenWeight) {
  // Both values are ranges, so each synapse takes two draws.  Their order
  // is fixed by the loader, not left to the compiler's argument evaluation
  // order: replay the load's stream and compare every synapse.
  SystemConfig cfg;
  cfg.machine = machine_config(2, 2, 4);
  cfg.machine.seed = 11;
  System sys(cfg);
  const auto weight = neural::ValueDist::uniform(1.0, 4.0);
  const auto delay = neural::ValueDist::uniform(1.0, 8.0);
  net::NetBuilder nb;
  nb.lif("a", 4);
  nb.lif("b", 5);
  nb.project("a", "b", neural::Connector::all_to_all(), weight, delay);
  constexpr neural::PopulationId a = 0;
  constexpr neural::PopulationId b = 1;
  const LoadReport report = sys.load(test::compile(nb.description()));
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_EQ(report.total_synapses, 20u);

  const PlacementResult& placement = report.placement;
  const Slice& pre = placement.slices[placement.by_population[a][0]];
  const Slice& post = placement.slices[placement.by_population[b][0]];
  neural::NeuronApp* post_app = nullptr;
  for (auto* app : sys.apps()) {
    if (app->config().key_base == post.key_base) post_app = app;
  }
  ASSERT_NE(post_app, nullptr);

  Rng replay(cfg.machine.seed ^ 0x10adD00Dull);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const neural::SynapticRow row = post_app->rows().find(pre.key_base + i);
    ASSERT_EQ(row.synapses.size(), 5u);
    for (std::uint32_t j = 0; j < 5; ++j) {
      const double d_ms = delay.sample(replay);
      const double w = weight.sample(replay);
      const neural::Synapse& syn = row.synapses[j];
      EXPECT_EQ(syn.target, j);
      EXPECT_EQ(syn.delay, static_cast<std::uint8_t>(d_ms + 0.5))
          << "i=" << i << " j=" << j;
      EXPECT_EQ(syn.weight_raw, neural::Synapse::pack_weight(w))
          << "i=" << i << " j=" << j;
    }
  }

  // Fixed-probability projections onto a population of three slices: a
  // plain one, a self-projection without self connections, p = 0 and
  // p = 1.  Replayed pair by pair, every candidate takes one chance()
  // trial (the self pair none), and every synapse then its delay and its
  // weight draw.  x's rows hold the p = 0.4 synapses, then the p = 1 ones.
  // u's 40,000 candidates are more than a block of the vector stream, so
  // on a CPU with a vector kernel the load draws from it, and the replay
  // checks it against Rng.
  SystemConfig sliced_cfg = cfg;
  sliced_cfg.machine = machine_config(4, 4, 4);
  sliced_cfg.mapper.neurons_per_core = 5;
  System sliced(sliced_cfg);
  net::NetBuilder fb;
  fb.lif("x", 4);
  fb.lif("y", 12);  // slices of 5, 5 and 2
  fb.lif("z", 3);
  fb.lif("u", 200);
  constexpr neural::PopulationId x = 0;
  constexpr neural::PopulationId y = 1;
  using neural::Connector;
  fb.project("x", "y", Connector::fixed_probability(0.4), weight, delay);
  fb.project("u", "u", Connector::fixed_probability(0.02), weight, delay);
  fb.project("y", "y", Connector::fixed_probability(0.5), weight, delay);
  fb.project("z", "y", Connector::fixed_probability(0.0), weight, delay);
  fb.project("x", "y", Connector::fixed_probability(1.0), weight, delay);
  const neural::Network fp = test::compile(fb.description());
  std::uint64_t candidates = 0;
  for (const neural::Projection& proj : fp.projections()) {
    candidates += std::uint64_t{fp.population(proj.pre).size} *
                  fp.population(proj.post).size;
  }
  ASSERT_GE(candidates, RngStream::kBlock);
  const LoadReport fp_report = sliced.load(fp);
  ASSERT_TRUE(fp_report.ok) << fp_report.error;
  const PlacementResult& fp_placement = fp_report.placement;
  ASSERT_EQ(fp_placement.by_population[y].size(), 3u);

  // The replay's rows, keyed by (target slice's key base, source key).
  std::map<std::pair<RoutingKey, RoutingKey>, std::vector<neural::Synapse>>
      expected;
  Rng stream(sliced_cfg.machine.seed ^ 0x10adD00Dull);
  std::uint64_t total = 0;
  for (const neural::Projection& proj : fp.projections()) {
    const std::uint32_t pre_size = fp.population(proj.pre).size;
    const std::uint32_t post_size = fp.population(proj.post).size;
    for (std::uint32_t i = 0; i < pre_size; ++i) {
      const Slice& ps =
          fp_placement.slices[*slice_of(fp_placement, proj.pre, i)];
      for (std::uint32_t j = 0; j < post_size; ++j) {
        if (proj.pre == proj.post && i == j) continue;
        if (!stream.chance(proj.connector.probability)) continue;
        const double d_ms = delay.sample(stream);
        const double w = weight.sample(stream);
        const Slice& qs =
            fp_placement.slices[*slice_of(fp_placement, proj.post, j)];
        neural::Synapse syn;
        syn.target = static_cast<std::uint16_t>(j - qs.first_neuron);
        syn.delay = static_cast<std::uint8_t>(d_ms + 0.5);
        syn.weight_raw = neural::Synapse::pack_weight(w);
        expected[{qs.key_base, ps.key_base + (i - ps.first_neuron)}]
            .push_back(syn);
        ++total;
      }
    }
  }
  EXPECT_EQ(fp_report.total_synapses, total);
  for (auto* app : sliced.apps()) {
    std::size_t rows = 0;
    for (const auto& [at, synapses] : expected) {
      if (at.first != app->config().key_base) continue;
      ++rows;
      const neural::SynapticRow row = app->rows().find(at.second);
      ASSERT_EQ(row.synapses.size(), synapses.size()) << "key=" << at.second;
      for (std::size_t k = 0; k < synapses.size(); ++k) {
        EXPECT_EQ(row.synapses[k].target, synapses[k].target)
            << "key=" << at.second << " k=" << k;
        EXPECT_EQ(row.synapses[k].delay, synapses[k].delay)
            << "key=" << at.second << " k=" << k;
        EXPECT_EQ(row.synapses[k].weight_raw, synapses[k].weight_raw)
            << "key=" << at.second << " k=" << k;
      }
    }
    EXPECT_EQ(app->rows().num_rows(), rows);
  }
  // p = 1 connected every pair, after the p = 0.4 synapses of each row.
  for (const std::size_t q : fp_placement.by_population[y]) {
    const Slice& qs = fp_placement.slices[q];
    const Slice& xs = fp_placement.slices[fp_placement.by_population[x][0]];
    const auto& row = expected.at({qs.key_base, xs.key_base});
    ASSERT_GE(row.size(), qs.num_neurons);
    for (std::uint32_t j = 0; j < qs.num_neurons; ++j) {
      EXPECT_EQ(row[row.size() - qs.num_neurons + j].target, j);
    }
  }
}

// Whichever generator made its draws, a load leaves its Rng after the last
// one: a trial per candidate pair, then a delay and a weight per synapse.
// 200 x 200 candidates are more than a block of the vector stream, 40 x 40
// fewer.
TEST(Loader, LeavesTheRngAfterItsLastDraw) {
  for (const std::uint32_t n : {40u, 200u}) {
    sim::SerialEngine engine(1);
    mesh::Machine m(engine, machine_config());
    net::NetBuilder b;
    b.lif("a", n);
    b.lif("b", n);
    b.project("a", "b", neural::Connector::fixed_probability(0.1),
              neural::ValueDist::uniform(1.0, 4.0),
              neural::ValueDist::uniform(1.0, 8.0));
    const neural::Network net = test::compile(b.description());
    Loader loader(MapperConfig{});
    Rng rng(77);
    const LoadReport report = loader.load(net, m, nullptr, rng);
    ASSERT_TRUE(report.ok) << report.error;
    ASSERT_GT(report.total_synapses, 0u);
    Rng replay(77);
    const std::uint64_t draws =
        std::uint64_t{n} * n + 2 * report.total_synapses;
    for (std::uint64_t i = 0; i < draws; ++i) replay.next();
    EXPECT_EQ(rng.next(), replay.next()) << "n=" << n;
  }
}

// Slice k's keys start at k << kNeuronKeyBits, so neuron 2048 of a wider
// slice would send slice k + 1's first key, and its spikes would reach the
// wrong rows or none.  The load refuses such a slice, saying why.
TEST(Loader, RefusesSlicesWiderThanTheKeyLayout) {
  net::NetBuilder b;
  b.poisson("src", 3000, 10.0);
  b.lif("dst", 10);
  b.project("src", "dst", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  const neural::Network net = test::compile(b.description());
  MapperConfig cfg;
  cfg.neurons_per_core = 4000;
  {
    sim::SerialEngine engine(1);
    mesh::Machine m(engine, machine_config());
    Loader loader(cfg);
    Rng rng(1);
    const LoadReport report = loader.load(net, m, nullptr, rng);
    EXPECT_FALSE(report.ok);
    EXPECT_FALSE(report.placement.fits);
    EXPECT_NE(report.error.find("'src' needs 3000-neuron slices at 4000 "
                                "neurons_per_core"),
              std::string::npos)
        << report.error;
    EXPECT_NE(report.error.find("holds 2048 neurons per slice"),
              std::string::npos)
        << report.error;
  }
  // The widest slice the layout holds loads, every source with its row.
  cfg.neurons_per_core = RoutingKey{1} << kNeuronKeyBits;
  sim::SerialEngine engine(1);
  mesh::Machine m(engine, machine_config());
  Loader loader(cfg);
  Rng rng(1);
  const LoadReport report = loader.load(net, m, nullptr, rng);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.placement.slices.size(), 3u);  // 2048 + 952 + 10
  EXPECT_EQ(report.total_rows, 3000u);
  EXPECT_EQ(report.total_synapses, 30000u);
}

}  // namespace
}  // namespace spinn::map
