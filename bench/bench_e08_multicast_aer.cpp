// E8 — §4: "In the past AER has been used principally in bus-based
// broadcast communication between neurons, but here we employ a
// packet-switched multicast mechanism to reduce total communication
// loading."
//
// For the same neural connectivity we count link traversals per spike under
// three delivery schemes:
//   broadcast — every spike visits every chip (bus-style AER);
//   unicast   — one packet per destination core, each walking the full path;
//   multicast — one packet per spike, copied only at tree branch points
//               (the SpiNNaker router).
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "harness.hpp"
#include "map/routing_gen.hpp"
#include "mesh/machine.hpp"
#include "net/client.hpp"
#include "sim/engine.hpp"

namespace {

using namespace spinn;

struct TrafficCounts {
  double multicast = 0;
  double unicast = 0;
  double broadcast = 0;
};

/// Count per-spike link traversals for a network mapped on a dim x dim
/// machine where each source slice projects to `fanout_pops` populations.
TrafficCounts count_traffic(std::uint16_t dim, int fanout_pops) {
  sim::SerialEngine engine(5);
  mesh::MachineConfig mc;
  mc.width = dim;
  mc.height = dim;
  mc.chip.num_cores = 3;  // 2 app cores per chip
  mesh::Machine m(engine, mc);

  net::NetBuilder b;
  b.poisson("src", 512, 10.0);
  constexpr neural::PopulationId src = 0;
  for (int i = 0; i < fanout_pops; ++i) {
    const std::string dst = "dst" + std::to_string(i);
    b.lif(dst, 512);
    b.project("src", dst, neural::Connector::fixed_probability(0.05),
              neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  }
  const neural::Network net = bench::compile(b.description());

  map::MapperConfig cfg;
  cfg.neurons_per_core = 128;
  cfg.scatter = true;  // spread slices over the machine
  const map::PlacementResult placement = map::place(net, m, cfg);
  const map::RoutingResult routing =
      map::generate_routing(net, placement, m.topology(), cfg);

  TrafficCounts counts;
  std::size_t source_slices = 0;
  for (std::size_t si = 0; si < placement.slices.size(); ++si) {
    if (placement.slices[si].pop != src) continue;
    ++source_slices;
    const auto dest_cores = map::destinations_of(net, placement, si);
    // Unicast: each destination gets its own packet over the shortest path.
    std::set<ChipCoord> dest_chips;
    for (const CoreId& c : dest_cores) {
      counts.unicast += m.topology().distance(
          placement.slices[si].core.chip, c.chip);
      dest_chips.insert(c.chip);
    }
    (void)dest_chips;
  }
  // Multicast: the tree edges, counted once per spike.
  counts.multicast = static_cast<double>(routing.stats.tree_links);
  // Broadcast: a spike floods every inter-chip link once in a spanning
  // sense; lower bound = chips-1 traversals to reach every chip.
  counts.broadcast =
      static_cast<double>(source_slices) * (m.topology().num_chips() - 1);
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  spinn::bench::Harness h("bench_e08_multicast_aer", argc, argv);
  double mc_vs_ucast_16x8 = 0.0;
  double mc_vs_bcast_16x8 = 0.0;
  h.run("fanout_sweep", [&] {
    std::printf("E8: total communication loading per spike volley — "
                "broadcast vs unicast vs multicast (§4)\n\n");
    std::printf("%-10s %-8s %14s %14s %14s %12s %12s\n", "machine", "fanout",
                "broadcast", "unicast", "multicast", "mc/ucast", "mc/bcast");
    for (const std::uint16_t dim : {8, 12, 16}) {
      for (const int fanout : {1, 2, 4, 8}) {
        const TrafficCounts c = count_traffic(dim, fanout);
        if (dim == 16 && fanout == 8) {
          mc_vs_ucast_16x8 = 100.0 * c.multicast / c.unicast;
          mc_vs_bcast_16x8 = 100.0 * c.multicast / c.broadcast;
        }
        std::printf("%2ux%-7u %-8d %14.0f %14.0f %14.0f %11.2f%% %11.2f%%\n",
                    dim, dim, fanout, c.broadcast, c.unicast, c.multicast,
                    100.0 * c.multicast / c.unicast,
                    100.0 * c.multicast / c.broadcast);
      }
    }
    std::printf("\nMulticast needs a fraction of the unicast traversals "
                "(paths shared until branch points) and a\ntiny fraction of "
                "broadcast — the multicast router is what makes large-scale "
                "AER feasible (§4).\n");
  });
  h.metric("mc_vs_unicast_traffic_16x16_fanout8_pct", mc_vs_ucast_16x8, "%");
  h.metric("mc_vs_broadcast_traffic_16x16_fanout8_pct", mc_vs_bcast_16x8,
           "%");
  return h.finish();
}
