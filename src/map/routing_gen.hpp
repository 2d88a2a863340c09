// Multicast routing-table generation (§5.3: "multicast routing tables
// computed...").
//
// For each source slice, the set of destination cores is derived from the
// network's projections; a multicast tree is grown as the union of the
// deterministic shortest paths from the source chip to each destination
// chip (greedy diagonal-first on the triangular torus — every router
// computes the same paths, so path unions are trees).  One key/mask entry
// covers the whole slice.
//
// Default-route compression (the trick that keeps the 1024-entry CAM
// sufficient): intermediate tree chips where the packet passes straight
// through with no fan-out and no local delivery need *no* entry — the
// router's default routing does the job.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "map/placement.hpp"
#include "mesh/machine.hpp"
#include "neural/network.hpp"
#include "router/routing_table.hpp"

namespace spinn::map {

/// The routing entries destined for one chip.
using ChipTables = std::unordered_map<ChipCoord,
                                      std::vector<router::McEntry>>;

struct RoutingStats {
  std::uint64_t entries_total = 0;
  std::uint64_t entries_saved_by_default_route = 0;
  std::size_t max_entries_per_chip = 0;
  std::uint64_t tree_links = 0;  // total tree edges (fabric load proxy, E8)
};

struct RoutingResult {
  ChipTables tables;
  RoutingStats stats;
};

/// Destination cores of a slice: every core holding a slice of a population
/// that the source population projects to.
std::vector<CoreId> destinations_of(const neural::Network& net,
                                    const PlacementResult& placement,
                                    std::size_t slice_index);

/// Build the multicast tree entries for every slice.
RoutingResult generate_routing(const neural::Network& net,
                               const PlacementResult& placement,
                               const mesh::Topology& topo,
                               const MapperConfig& cfg);

/// What install_tables() wrote.
struct TableInstall {
  bool ok = true;             // false: a full table refused an entry
  std::size_t routers = 0;    // chips whose entries all went in
  std::uint64_t entries = 0;  // entries added
};

/// Add each chip's entries to that chip's multicast table, in order.  Stops
/// at the first entry a full table refuses; the entries before it stay.
TableInstall install_tables(const ChipTables& tables, mesh::Machine& machine);

/// Key/mask merging: entries with identical routes whose keys differ in a
/// single maskable bit are folded together, shrinking CAM usage.  Returns
/// the minimised entries (order preserved where possible).
std::vector<router::McEntry> minimize_entries(
    std::vector<router::McEntry> entries);

}  // namespace spinn::map
