// Live fault injection: a spike stream crosses an 8x8 torus while we kill
// and then repair the link under it.  Watch the Fig. 8 emergency routing
// engage, the Monitor Processor get notified, and normal flow resume.
//
//   $ ./fault_tolerant_routing
#include <cstdio>
#include <memory>

#include "core/spinnaker.hpp"

int main() {
  using namespace spinn;

  sim::SerialEngine engine(3);
  mesh::MachineConfig mc;
  mc.width = 8;
  mc.height = 8;
  mc.chip.num_cores = 2;
  mesh::Machine machine(engine, mc);
  sim::Simulator& sim = engine.root();

  // Stream: (1,4) -> East -> ... -> (6,4), delivered to core 1 there.
  const RoutingKey key = 0x80;
  machine.chip_at({1, 4}).router().mc_table().add(
      {key, ~0u, router::Route::to_link(LinkDir::East)});
  machine.chip_at({6, 4}).router().mc_table().add(
      {key, ~0u, router::Route::to_core(1)});

  obs::Histogram latency(0, 1000000, 100);  // ns
  auto probe = std::make_unique<core::LatencyProbe>(&latency);
  auto* probe_ptr = probe.get();
  machine.chip_at({6, 4}).core(1).load_program(std::move(probe));
  machine.chip_at({6, 4}).core(1).start();

  core::TrafficSource::Config tc;
  tc.keys = {key};
  tc.packets_per_tick = 2.0;  // lightly loaded, as the fabric is designed for
  auto source = std::make_unique<core::TrafficSource>(tc);
  auto* source_ptr = source.get();
  machine.chip_at({1, 4}).core(1).load_program(std::move(source));
  machine.chip_at({1, 4}).core(1).start();

  // Monitor-processor subscriptions on the chip upstream of the fault.
  std::uint64_t er_notifications = 0;
  std::uint64_t drop_notifications = 0;
  machine.chip_at({3, 4}).set_monitor_event_handler(
      [&](const router::RouterEvent& e) {
        if (e.type == router::RouterEventType::EmergencyInvoked) {
          ++er_notifications;
        } else {
          ++drop_notifications;
        }
      });

  auto report = [&](const char* phase) {
    const auto t = machine.fabric_totals();
    std::printf("%-28s sent=%6llu delivered=%6llu emergency=%5llu "
                "dropped=%4llu monitorER=%5llu monitorDrop=%4llu\n",
                phase, static_cast<unsigned long long>(source_ptr->sent()),
                static_cast<unsigned long long>(probe_ptr->received()),
                static_cast<unsigned long long>(t.emergency_first_leg),
                static_cast<unsigned long long>(t.dropped),
                static_cast<unsigned long long>(er_notifications),
                static_cast<unsigned long long>(drop_notifications));
  };

  std::printf("fault-tolerant routing demo: stream (1,4) -> (6,4), link "
              "(3,4)->(4,4) killed at 50 ms, repaired at 100 ms\n\n");

  machine.start_all_timers();
  sim.run_until(50 * kMillisecond);
  report("t=50ms  healthy:");

  machine.fail_link({3, 4}, LinkDir::East);
  sim.run_until(100 * kMillisecond);
  report("t=100ms link dead (ER active):");

  machine.repair_link({3, 4}, LinkDir::East);
  sim.run_until(150 * kMillisecond);
  report("t=150ms link repaired:");

  machine.stop_all_timers();
  sim.run_until(sim.now() + 2 * kMillisecond);

  const double delivery =
      100.0 * static_cast<double>(probe_ptr->received()) /
      static_cast<double>(source_ptr->sent());
  std::printf("\nfinal delivery: %.2f%%  (mean latency %.2f us, p99 %.2f "
              "us)\n",
              delivery,
              static_cast<double>(latency.sum()) /
                  static_cast<double>(latency.count()) / 1e3,
              static_cast<double>(latency.percentile(0.99)) / 1e3);
  std::printf("Every packet that met the dead link took the two-hop "
              "triangle detour (NE then S) — \"the Router\nwill invoke "
              "emergency routing to redirect packets ... around the two "
              "other sides of one of the\nmesh triangles\" (Fig. 8) — and "
              "the Monitor Processor was told each time.\n");
  return 0;
}
