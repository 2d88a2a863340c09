// Quickstart: build a small SpiNNaker machine, boot it, load a little
// excitatory/inhibitory spiking network, run it in biological real time and
// inspect the results.
//
//   $ ./quickstart
//
// This walks the whole public API surface in ~60 lines of user code.
#include <cstdio>
#include <string>

#include "core/spinnaker.hpp"

int main() {
  using namespace spinn;

  // --- 1. Describe the machine: a 2x2 torus of 18-core chips. -------------
  SystemConfig cfg;
  cfg.machine.width = 2;
  cfg.machine.height = 2;
  cfg.machine.chip.num_cores = 18;
  cfg.machine.seed = 42;
  System sys(cfg);

  // --- 2. Boot it (self-test, monitor election, coordinate flood, p2p
  //        tables, flood-fill application load — §5.2 of the paper). ------
  const boot::BootReport boot = sys.boot();
  std::printf("booted: %zu chips alive, load finished at t=%.2f ms\n",
              boot.chips_alive,
              static_cast<double>(boot.load_done) / kMillisecond);

  // --- 3. Describe a network, PyNN-style, and compile it. -----------------
  net::NetBuilder b;
  b.poisson("noise", 100, 40.0);  // 100 x 40 Hz
  b.lif("exc", 200);
  b.lif("inh", 50);
  b.project("noise", "exc", neural::Connector::fixed_probability(0.2),
            neural::ValueDist::uniform(4.0, 8.0),
            neural::ValueDist::fixed(1.0));
  b.project("exc", "inh", neural::Connector::fixed_probability(0.1),
            neural::ValueDist::fixed(3.0),
            neural::ValueDist::uniform(1.0, 4.0));
  b.project("inh", "exc", neural::Connector::fixed_probability(0.1),
            neural::ValueDist::fixed(6.0), neural::ValueDist::fixed(1.0),
            /*inhibitory=*/true);
  // A population's id is its position in the description.
  constexpr neural::PopulationId exc = 1;
  constexpr neural::PopulationId inh = 2;
  neural::Network net;
  std::string error;
  if (!neural::build(b.description(), &net, &error)) {
    std::printf("invalid network: %s\n", error.c_str());
    return 1;
  }

  // --- 4. Place, route and load it onto the machine. -----------------------
  const map::LoadReport load = sys.load(net);
  if (!load.ok) {
    std::printf("load failed: %s\n", load.error.c_str());
    return 1;
  }
  std::printf("loaded: %zu cores on %zu chips, %llu synapses in %llu rows, "
              "%.1f kB SDRAM, %llu routing entries\n",
              load.placement.cores_used, load.placement.chips_used,
              static_cast<unsigned long long>(load.total_synapses),
              static_cast<unsigned long long>(load.total_rows),
              static_cast<double>(load.sdram_bytes) / 1024.0,
              static_cast<unsigned long long>(load.routing.entries_total));

  // --- 5. Run one biological second. ---------------------------------------
  sys.run(1000 * kMillisecond);

  // --- 6. Inspect spikes, fabric and energy. --------------------------------
  const auto exc_base =
      load.placement.slices[load.placement.by_population[exc][0]].key_base;
  const auto inh_base =
      load.placement.slices[load.placement.by_population[inh][0]].key_base;
  std::printf("\nspikes recorded: %zu total\n", sys.spikes().count());
  std::printf("  exc rate: %.1f Hz/neuron\n",
              static_cast<double>(
                  sys.spikes().count_in_key_range(exc_base, 1 << 11)) /
                  200.0);
  std::printf("  inh rate: %.1f Hz/neuron\n",
              static_cast<double>(
                  sys.spikes().count_in_key_range(inh_base, 1 << 11)) /
                  50.0);

  const auto fabric = sys.fabric_totals();
  std::printf("\nfabric: %llu packets routed, %llu crossed chips, %llu "
              "dropped, %llu emergency-routed\n",
              static_cast<unsigned long long>(fabric.received),
              static_cast<unsigned long long>(fabric.forwarded),
              static_cast<unsigned long long>(fabric.dropped),
              static_cast<unsigned long long>(fabric.emergency_first_leg));

  const auto energy = sys.energy();
  std::printf("\nenergy: %.2f mJ total over 1 s -> %.1f mW average "
              "(cores %.2f mJ active / %.2f mJ sleeping, fabric %.3f mJ, "
              "SDRAM %.3f mJ)\n",
              energy.total_j() * 1e3, energy.average_watts(sys.now()) * 1e3,
              energy.core_active_j * 1e3, energy.core_sleep_j * 1e3,
              energy.fabric_j * 1e3, energy.sdram_j * 1e3);
  return 0;
}
