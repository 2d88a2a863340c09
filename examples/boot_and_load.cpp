// A narrated run of the §5.2 distributed boot: self-test and monitor
// election on every chip, neighbour rescue of a transiently-failed node,
// the (0,0) coordinate flood over nn packets, per-chip p2p table builds,
// and the flood-fill application load — on a machine with one chip that is
// stone dead.
//
//   $ ./boot_and_load
#include <cstdio>

#include "core/spinnaker.hpp"

int main() {
  using namespace spinn;

  sim::SerialEngine engine(21);
  mesh::MachineConfig mc;
  mc.width = 8;
  mc.height = 8;
  mc.chip.num_cores = 18;
  mesh::Machine machine(engine, mc);
  sim::Simulator& sim = engine.root();

  // One chip is permanently dead; another has every core transiently
  // failing self-test (rescuable by its neighbours).
  machine.fail_chip({5, 2});
  chip::Chip& flaky = machine.chip_at({2, 6});
  for (CoreIndex i = 0; i < flaky.num_cores(); ++i) {
    flaky.core(i).mark_failed();
  }

  boot::BootConfig bc;
  bc.image_blocks = 32;
  bc.words_per_block = 64;
  bc.redundancy = 2;
  bc.block_loss_prob = 0.05;
  bc.rescue_success_prob = 1.0;

  boot::BootController controller(sim, machine, bc);
  boot::BootReport report;
  bool done = false;
  controller.start([&](const boot::BootReport& r) {
    report = r;
    done = true;
  });
  while (!done && !sim.queue().empty() && sim.now() < 60 * kSecond) {
    sim.queue().step();
  }
  if (!done) report = controller.report();

  auto ms = [](TimeNs t) { return static_cast<double>(t) / kMillisecond; };
  std::printf("distributed boot of an 8x8 machine (64 chips, 18 cores "
              "each); chip (5,2) dead, chip (2,6) flaky\n\n");
  std::printf("phase timeline:\n");
  std::printf("  %-44s t=%8.3f ms\n", "self-test + monitor elections done",
              ms(report.elections_done));
  std::printf("  %-44s t=%8.3f ms\n", "coordinates flooded from (0,0)",
              ms(report.coords_done));
  std::printf("  %-44s t=%8.3f ms\n", "p2p routing tables built",
              ms(report.p2p_done));
  std::printf("  %-44s t=%8.3f ms\n", "flood-fill application load complete",
              ms(report.load_done));

  std::printf("\noutcome: %zu chips alive (%zu rescued by neighbours, %zu "
              "dead), %llu nn packets, %llu duplicate\nblocks absorbed, "
              "%llu lossy transfers survived, complete=%s\n",
              report.chips_alive, report.chips_rescued, report.chips_dead,
              static_cast<unsigned long long>(report.nn_packets_sent),
              static_cast<unsigned long long>(report.duplicate_blocks),
              static_cast<unsigned long long>(report.blocks_lost),
              report.complete ? "yes" : "no");

  // Show a couple of per-chip facts.
  std::printf("\nspot checks:\n");
  std::printf("  (2,6) booted after rescue: %s, monitor core %d\n",
              controller.chip_booted({2, 6}) ? "yes" : "no",
              machine.chip_at({2, 6}).monitor_core().has_value()
                  ? static_cast<int>(*machine.chip_at({2, 6}).monitor_core())
                  : -1);
  std::printf("  (5,2) stayed dead and was skipped: booted=%s\n",
              controller.chip_booted({5, 2}) ? "yes" : "no");
  const auto assigned = controller.assigned_coord({7, 7});
  std::printf("  (7,7) self-assigned coordinates: %s\n",
              assigned.has_value() && *assigned == ChipCoord{7, 7}
                  ? "(7,7) — correct"
                  : "WRONG");
  std::printf("  p2p hop from (7,7) towards (0,0): %d (0=E 1=NE 2=N 3=W "
              "4=SW 5=S)\n",
              static_cast<int>(machine.chip_at({7, 7})
                                   .router()
                                   .p2p_table()
                                   .get(make_p2p_address({0, 0}))));
  return 0;
}
