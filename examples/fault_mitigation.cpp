// Runtime fault mitigation (paper abstract: "run-time support for
// functional migration and real-time fault mitigation"): a population is
// running on a core that starts failing; the monitor migrates the slice —
// program, neuron state, synaptic rows, AER identity — to a spare core and
// rewrites the machine's routing tables.  The rest of the network never
// notices: same keys, same connectivity, barely a blip in the firing rate.
//
//   $ ./fault_mitigation
#include <cstdio>
#include <string>

#include "core/spinnaker.hpp"
#include "map/migration.hpp"

int main() {
  using namespace spinn;

  SystemConfig cfg;
  cfg.machine.width = 2;
  cfg.machine.height = 2;
  cfg.machine.chip.num_cores = 8;
  cfg.mapper.neurons_per_core = 64;
  System sys(cfg);

  net::NetBuilder b;
  b.poisson("drive", 64, 40.0);
  b.lif("cells", 64);
  b.project("drive", "cells", neural::Connector::fixed_probability(0.3),
            neural::ValueDist::fixed(3.0), neural::ValueDist::fixed(1.0));
  constexpr neural::PopulationId cells = 1;
  neural::Network net;
  std::string error;
  if (!neural::build(b.description(), &net, &error)) {
    std::printf("invalid network: %s\n", error.c_str());
    return 1;
  }
  auto report = sys.load(net);
  if (!report.ok) {
    std::printf("load failed: %s\n", report.error.c_str());
    return 1;
  }

  const auto cells_slice_index = report.placement.by_population[cells][0];
  const auto base =
      report.placement.slices[cells_slice_index].key_base;
  auto rate_since = [&](std::size_t from_count, TimeNs window) {
    const auto now_count = sys.spikes().count_in_key_range(base, 1u << 11);
    return (static_cast<double>(now_count - from_count)) /
           (static_cast<double>(window) / kSecond) / 64.0;
  };

  std::printf("fault-mitigation demo: population 'cells' (64 LIF) under "
              "40 Hz drive\n\n");

  // Healthy phase.
  std::size_t mark = 0;
  sys.run(200 * kMillisecond);
  std::printf("t=200ms  healthy:            %5.1f Hz/neuron on core %s\n",
              rate_since(mark, 200 * kMillisecond),
              [&] {
                static char buf[32];
                const CoreId c = report.placement.slices[cells_slice_index].core;
                std::snprintf(buf, sizeof buf, "(%u,%u):%u", c.chip.x,
                              c.chip.y, c.core);
                return buf;
              }());

  // The core starts failing: the monitor migrates the slice away.
  mark = sys.spikes().count_in_key_range(base, 1u << 11);
  map::Migrator migrator(net, report.placement, cfg.mapper);
  const CoreId victim = report.placement.slices[cells_slice_index].core;
  const auto migration = migrator.migrate(sys.machine(), victim);
  if (!migration.ok) {
    std::printf("migration failed: %s\n", migration.error.c_str());
    return 1;
  }
  std::printf("t=200ms  MIGRATION: (%u,%u):%u -> (%u,%u):%u — %llu routing "
              "entries rewritten on %zu routers\n",
              migration.from.chip.x, migration.from.chip.y,
              migration.from.core, migration.to.chip.x, migration.to.chip.y,
              migration.to.core,
              static_cast<unsigned long long>(migration.entries_written),
              migration.routers_rewritten);

  sys.run(200 * kMillisecond);
  std::printf("t=400ms  after migration:    %5.1f Hz/neuron on core "
              "(%u,%u):%u\n",
              rate_since(mark, 200 * kMillisecond), migration.to.chip.x,
              migration.to.chip.y, migration.to.core);

  // Physically fail the vacated core to show the network no longer
  // depends on it.
  sys.machine().chip_at(victim.chip).core(victim.core).mark_failed();
  mark = sys.spikes().count_in_key_range(base, 1u << 11);
  sys.run(200 * kMillisecond);
  std::printf("t=600ms  old core dead:      %5.1f Hz/neuron (unaffected)\n",
              rate_since(mark, 200 * kMillisecond));

  std::printf("\nThe population kept its AER keys and synaptic rows through "
              "the move — \"virtualised topology\"\n(§3.2) is what makes "
              "this kind of real-time fault mitigation possible: the "
              "logical network never\nlearns that its physical home "
              "changed.\n");
  return 0;
}
