#include "map/routing_gen.hpp"

#include <algorithm>
#include <optional>
#include <set>

namespace spinn::map {

std::vector<CoreId> destinations_of(const neural::Network& net,
                                    const PlacementResult& placement,
                                    std::size_t slice_index) {
  const Slice& src = placement.slices[slice_index];
  std::set<CoreId> dests;
  for (const neural::Projection& proj : net.projections()) {
    if (proj.pre != src.pop) continue;
    for (const std::size_t post_si : placement.by_population[proj.post]) {
      dests.insert(placement.slices[post_si].core);
    }
  }
  return {dests.begin(), dests.end()};
}

namespace {

/// Per-chip node of a multicast tree under construction.
struct TreeNode {
  std::optional<LinkDir> in;   // arrival link (port on this chip)
  router::Route route;         // outgoing links + local cores
  bool is_source = false;
};

}  // namespace

RoutingResult generate_routing(const neural::Network& net,
                               const PlacementResult& placement,
                               const mesh::Topology& topo,
                               const MapperConfig& cfg) {
  RoutingResult result;

  for (std::size_t si = 0; si < placement.slices.size(); ++si) {
    const Slice& src = placement.slices[si];
    const std::vector<CoreId> dests = destinations_of(net, placement, si);
    if (dests.empty()) continue;

    std::unordered_map<ChipCoord, TreeNode> tree;
    tree[src.core.chip].is_source = true;

    for (const CoreId& dest : dests) {
      // Local delivery bit on the destination chip.
      tree[dest.chip].route |= router::Route::to_core(dest.core);
      // Grow the path from source to dest chip.
      ChipCoord cur = src.core.chip;
      while (cur != dest.chip) {
        const LinkDir d = topo.next_hop(cur, dest.chip);
        TreeNode& node = tree[cur];
        if (!node.route.has_link(d)) {
          node.route |= router::Route::to_link(d);
          ++result.stats.tree_links;
        }
        const ChipCoord next = topo.neighbour(cur, d);
        TreeNode& next_node = tree[next];
        // Arrival port on `next` is the opposite of the travel direction.
        next_node.in = opposite(d);
        cur = next;
      }
    }

    // Emit entries.
    const router::McEntry base{src.key_base, kSliceKeyMask, router::Route{}};
    for (auto& [coord, node] : tree) {
      if (node.route.empty()) continue;  // leaf with no local cores: bogus
      const bool straight_through =
          cfg.default_route_compression && !node.is_source &&
          node.in.has_value() &&
          node.route == router::Route::to_link(opposite(*node.in));
      if (straight_through) {
        ++result.stats.entries_saved_by_default_route;
        continue;
      }
      router::McEntry e = base;
      e.route = node.route;
      result.tables[coord].push_back(e);
    }
  }

  if (cfg.minimize_tables) {
    for (auto& [coord, entries] : result.tables) {
      entries = minimize_entries(std::move(entries));
    }
  }

  for (const auto& [coord, entries] : result.tables) {
    result.stats.entries_total += entries.size();
    result.stats.max_entries_per_chip =
        std::max(result.stats.max_entries_per_chip, entries.size());
  }
  return result;
}

TableInstall install_tables(const ChipTables& tables,
                            mesh::Machine& machine) {
  TableInstall out;
  for (const auto& [coord, entries] : tables) {
    router::MulticastTable& table = machine.chip_at(coord).router().mc_table();
    for (const router::McEntry& e : entries) {
      if (!table.add(e)) {
        out.ok = false;
        return out;
      }
      ++out.entries;
    }
    ++out.routers;
  }
  return out;
}

std::vector<router::McEntry> minimize_entries(
    std::vector<router::McEntry> entries) {
  // Greedy sibling merging: two entries with identical mask and route whose
  // keys differ in exactly one bit covered by the mask merge into one entry
  // with that bit cleared from key and mask.  Repeat to fixpoint.
  bool merged = true;
  while (merged) {
    merged = false;
    for (std::size_t i = 0; i < entries.size() && !merged; ++i) {
      for (std::size_t j = i + 1; j < entries.size(); ++j) {
        router::McEntry& a = entries[i];
        const router::McEntry& b = entries[j];
        if (a.mask != b.mask || !(a.route == b.route)) continue;
        const RoutingKey diff = a.key ^ b.key;
        if (diff == 0 || (diff & (diff - 1)) != 0) continue;  // not 1 bit
        if ((a.mask & diff) == 0) continue;                   // outside mask
        a.key &= ~diff;
        a.mask &= ~diff;
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(j));
        merged = true;
        break;
      }
    }
  }
  return entries;
}

}  // namespace spinn::map
