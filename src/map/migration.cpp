#include "map/migration.hpp"

#include <algorithm>
#include <set>

namespace spinn::map {

std::optional<CoreId> Migrator::find_spare(mesh::Machine& machine,
                                           ChipCoord close_to) const {
  std::set<CoreId> occupied;
  for (const Slice& s : placement_.slices) occupied.insert(s.core);

  // Chips in increasing distance from the victim.
  const mesh::Topology& topo = machine.topology();
  std::vector<ChipCoord> chips;
  chips.reserve(machine.num_chips());
  for (std::size_t i = 0; i < machine.num_chips(); ++i) {
    chips.push_back(topo.coord_of(i));
  }
  std::sort(chips.begin(), chips.end(),
            [&](ChipCoord a, ChipCoord b) {
              const int da = topo.distance(close_to, a);
              const int db = topo.distance(close_to, b);
              if (da != db) return da < db;
              return a < b;
            });

  for (const ChipCoord c : chips) {
    if (machine.chip_failed(c)) continue;
    for (const CoreIndex i : app_cores(machine.chip_at(c))) {
      const CoreId candidate{c, i};
      if (occupied.count(candidate)) continue;
      if (machine.chip_at(c).core(i).program() != nullptr) continue;
      return candidate;
    }
  }
  return std::nullopt;
}

MigrationReport Migrator::migrate(mesh::Machine& machine, CoreId from,
                                  std::optional<CoreId> to) {
  MigrationReport report;
  report.from = from;

  // The monitor core is the chip's operating system (§4.1), not a slice
  // host — it has no program to move and taking it down orphans the chip.
  const CoreIndex monitor =
      machine.chip_at(from.chip).monitor_core().value_or(0);
  if (from.core == monitor) {
    report.error = "refusing to migrate the monitor core (core " +
                   std::to_string(monitor) + " of chip (" +
                   std::to_string(from.chip.x) + "," +
                   std::to_string(from.chip.y) + "))";
    return report;
  }

  // Which slice lives on the victim core?
  std::size_t slice_index = placement_.slices.size();
  for (std::size_t i = 0; i < placement_.slices.size(); ++i) {
    if (placement_.slices[i].core == from) {
      slice_index = i;
      break;
    }
  }
  if (slice_index == placement_.slices.size()) {
    report.error = "no slice is placed on the source core";
    return report;
  }

  if (!to.has_value()) to = find_spare(machine, from.chip);
  if (!to.has_value()) {
    // Quantify the exhaustion: how full the machine actually is tells the
    // operator whether to shrink the net or grow the machine.
    std::size_t alive_chips = 0;
    std::size_t usable_app_cores = 0;
    const mesh::Topology& topo = machine.topology();
    for (std::size_t i = 0; i < machine.num_chips(); ++i) {
      const ChipCoord c = topo.coord_of(i);
      if (machine.chip_failed(c)) continue;
      ++alive_chips;
      usable_app_cores += app_cores(machine.chip_at(c)).size();
    }
    report.error = "no spare application core available: " +
                   std::to_string(placement_.slices.size()) +
                   " slices resident on " +
                   std::to_string(usable_app_cores) +
                   " usable app cores across " +
                   std::to_string(alive_chips) + " alive chips";
    return report;
  }
  report.to = *to;
  chip::Core& target = machine.chip_at(to->chip).core(to->core);
  if (target.program() != nullptr ||
      target.state() == chip::CoreState::Failed) {
    report.error = "destination core is not a usable spare";
    return report;
  }

  // 1. Quiesce and take the program (with all neuron/synapse state).
  chip::Core& victim = machine.chip_at(from.chip).core(from.core);
  auto program = victim.take_program();
  if (!program) {
    report.error = "source core has no program";
    return report;
  }

  // 2. Adopt on the spare and resume.
  target.load_program(std::move(program));
  target.start();

  // 3. Update the placement and regenerate the multicast routing so the
  //    same AER keys now reach the new core.
  placement_.slices[slice_index].core = *to;
  const RoutingResult routing =
      generate_routing(net_, placement_, machine.topology(), cfg_);
  const mesh::Topology& topo = machine.topology();
  for (std::size_t i = 0; i < machine.num_chips(); ++i) {
    const ChipCoord c = topo.coord_of(i);
    machine.chip_at(c).router().mc_table().clear();
  }
  const TableInstall installed = install_tables(routing.tables, machine);
  report.routers_rewritten = installed.routers;
  report.entries_written = installed.entries;
  if (!installed.ok) {
    report.error = "multicast table overflow during migration";
    return report;
  }

  // Reconfiguration estimate: each entry is a p2p write from the monitor
  // (~1 us each including fabric round trip).
  report.reconfiguration_estimate_ns =
      static_cast<TimeNs>(report.entries_written) * kMicrosecond;
  report.ok = true;
  return report;
}

}  // namespace spinn::map
