// E5 — §5.2: distributed boot and flood-fill application loading.
//
// Paper claims: "The flood-fill mechanism has been shown to give load times
// almost independent of the size of the machine, with trade-offs between
// load time and the degree of fault-tolerance, which can be controlled by
// the number of times a node receives each component of the application."
//
// Part A sweeps machine size at fixed image; Part B sweeps the redundancy
// factor under injected block loss.
#include <cstdio>

#include "boot/boot_controller.hpp"
#include "harness.hpp"
#include "mesh/machine.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace spinn;

struct Result {
  boot::BootReport report;
  bool finished = false;
};

Result run_boot(std::uint16_t dim, const boot::BootConfig& bc,
                std::uint64_t seed = 1) {
  sim::SerialEngine engine(seed);
  mesh::MachineConfig mc;
  mc.width = dim;
  mc.height = dim;
  mc.chip.num_cores = 2;  // boot exercises monitors, not app cores
  mc.seed = seed;
  mesh::Machine machine(engine, mc);
  sim::Simulator& sim = engine.root();
  boot::BootController controller(sim, machine, bc);
  Result r;
  controller.start([&](const boot::BootReport& rep) {
    r.report = rep;
    r.finished = true;
  });
  while (!r.finished && !sim.queue().empty() && sim.now() < 120 * kSecond) {
    sim.queue().step();
  }
  if (!r.finished) r.report = controller.report();
  return r;
}

double ms(TimeNs t) { return static_cast<double>(t) / kMillisecond; }

}  // namespace

int main(int argc, char** argv) {
  spinn::bench::Harness h("bench_e05_boot_floodfill", argc, argv);
  double load_growth_x = 0.0;
  boot::BootConfig bc;  // shared image geometry for both sweeps
  bc.image_blocks = 32;
  bc.words_per_block = 64;
  h.run("size_sweep", [&] {
    std::printf("E5: distributed boot + flood-fill load (§5.2)\n\n");

    std::printf("Part A: boot phases vs machine size (32-block image, "
                "redundancy 1)\n");
    std::printf("%-10s %8s %14s %14s %14s %14s %12s\n", "machine", "chips",
                "election(ms)", "coords(ms)", "p2p(ms)", "load(ms)",
                "nn packets");
    double load4 = 0, load_max = 0;
    for (const std::uint16_t dim : {4, 8, 12, 16, 20, 24}) {
      const Result r = run_boot(dim, bc);
      const auto& rep = r.report;
      const double load_phase = ms(rep.load_done - rep.p2p_done);
      if (dim == 4) load4 = load_phase;
      load_max = load_phase;
      std::printf("%2ux%-7u %8zu %14.2f %14.2f %14.2f %14.2f %12llu%s\n",
                  dim, dim, rep.chips_alive, ms(rep.elections_done),
                  ms(rep.coords_done - rep.elections_done),
                  ms(rep.p2p_done - rep.coords_done), load_phase,
                  static_cast<unsigned long long>(rep.nn_packets_sent),
                  rep.complete ? "" : "  [INCOMPLETE]");
    }
    load_growth_x = load4 > 0 ? load_max / load4 : 0.0;
    std::printf("\nLoad-phase growth from 16 to 576 chips: x%.2f  (paper: "
                "\"almost independent of the size of the machine\")\n\n",
                load_growth_x);
  });
  h.run("redundancy_sweep", [&] {
    std::printf("Part B: redundancy vs load time under 40%% block loss "
                "(16x16 machine)\n");
    std::printf("%-12s %14s %16s %14s %12s\n", "redundancy", "load(ms)",
                "duplicates", "lost blocks", "complete");
    for (const int redundancy : {1, 2, 3, 4}) {
      boot::BootConfig lossy = bc;
      lossy.redundancy = redundancy;
      lossy.block_loss_prob = 0.40;
      const Result r = run_boot(16, lossy, 7);
      char load_ms[24];
      if (r.report.complete) {
        std::snprintf(load_ms, sizeof load_ms, "%.2f",
                      ms(r.report.load_done - r.report.p2p_done));
      } else {
        std::snprintf(load_ms, sizeof load_ms, "stalled");
      }
      std::printf("%-12d %14s %16llu %14llu %12s\n", redundancy, load_ms,
                  static_cast<unsigned long long>(r.report.duplicate_blocks),
                  static_cast<unsigned long long>(r.report.blocks_lost),
                  r.report.complete ? "yes" : "NO");
    }
    std::printf("\nHigher redundancy buys loss tolerance with more "
                "duplicate traffic and a longer load phase\n(the §5.2 "
                "trade-off).\n");
  });
  h.metric("load_phase_growth_16_to_576_chips_x", load_growth_x);
  return h.finish();
}
