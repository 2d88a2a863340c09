// One SpiNNaker node (§4, Fig. 3): up to 20 ARM968 cores, a multicast
// router, the Communications NoC, the System NoC with its shared SDRAM, a
// System Controller, all inside a per-chip GALS clock domain.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "chip/clock_domain.hpp"
#include "chip/core.hpp"
#include "chip/sdram.hpp"
#include "chip/system_controller.hpp"
#include "noc/comms_noc.hpp"
#include "noc/system_noc.hpp"
#include "router/router.hpp"
#include "sim/simulator.hpp"

namespace spinn::chip {

struct ChipConfig {
  CoreIndex num_cores = kCoresPerChip;
  /// Per-chip clock error is drawn ~ N(0, clock_drift_ppm_sigma).
  double clock_drift_ppm_sigma = 30.0;
  /// Probability a core fails its power-on self-test (§5.2 fault model).
  double core_fail_prob = 0.0;
  double core_clock_hz = machine::kCoreClockHz;
  double core_ipc = machine::kCoreIpc;
  router::RouterConfig router;
  noc::SystemNocConfig system_noc;
  noc::CommsNocConfig comms_noc;
};

/// Messages the router raises at the Monitor Processor (drops, emergency
/// routing invocations) are forwarded to this handler; boot firmware and
/// monitor programs subscribe.
using MonitorPacketHandler = std::function<void(const router::Packet&)>;
using MonitorEventHandler = std::function<void(const router::RouterEvent&)>;

class Chip {
 public:
  Chip(sim::Simulator& sim, ChipCoord coord, const ChipConfig& config,
       Rng& seed_source);

  Chip(const Chip&) = delete;
  Chip& operator=(const Chip&) = delete;

  ChipCoord coord() const { return coord_; }
  const ChipConfig& config() const { return cfg_; }
  const ClockDomain& clock() const { return clock_; }

  /// Deterministic-ordering identity of this chip's event tree (see
  /// sim/event_queue.hpp).  The machine assigns chip index + 1 right after
  /// construction, before anything is scheduled; a standalone chip stays on
  /// the root actor.
  void set_actor(sim::ActorId actor);
  sim::ActorId actor() const { return actor_; }

  router::Router& router() { return router_; }
  const router::Router& router() const { return router_; }
  noc::SystemNoc& system_noc() { return system_noc_; }
  const noc::SystemNoc& system_noc() const { return system_noc_; }
  noc::CommsNoc& comms_noc() { return comms_noc_; }
  const noc::CommsNoc& comms_noc() const { return comms_noc_; }
  Sdram& sdram() { return sdram_; }
  SystemController& system_controller() { return sysctl_; }

  CoreIndex num_cores() const { return static_cast<CoreIndex>(cores_.size()); }
  Core& core(CoreIndex i) { return *cores_[i]; }
  const Core& core(CoreIndex i) const { return *cores_[i]; }

  /// §5.2 boot step 1: every core self-tests; survivors bid for Monitor via
  /// the System Controller's read-sensitive register.  Completion is
  /// event-driven; returns immediately.  `done(monitor_core)` fires when the
  /// election resolves (or with no value if every core failed).
  void run_self_test_and_election(
      std::function<void(std::optional<CoreIndex>)> done);

  std::optional<CoreIndex> monitor_core() const { return sysctl_.monitor(); }

  /// Packets addressed to "the monitor" (nn, p2p Local) land here.
  void set_monitor_packet_handler(MonitorPacketHandler h) {
    router_.set_monitor_sink(std::move(h));
  }
  /// Router diagnostics (drops, emergency routing) land here.
  void set_monitor_event_handler(MonitorEventHandler h) {
    router_.set_monitor_notify(std::move(h));
  }

  /// Start the 1 ms application timers on every usable application core.
  /// Each chip's timer runs on its own (drifting) clock — Fig. 5.
  void start_timers(TimeNs nominal_period = kBiologicalTick);
  void stop_timers();

  /// Aggregate per-chip statistics.
  TimeNs total_core_busy_ns() const;
  std::uint64_t total_overruns() const;

 private:
  void timer_tick();

  sim::Simulator& sim_;
  ChipCoord coord_;
  sim::ActorId actor_ = sim::kRootActor;
  ChipConfig cfg_;
  ClockDomain clock_;
  SystemController sysctl_;
  Sdram sdram_;
  Rng rng_;

  noc::SystemNoc system_noc_;
  noc::CommsNoc comms_noc_;
  router::Router router_;
  std::vector<std::unique_ptr<Core>> cores_;

  bool timers_running_ = false;
  TimeNs timer_period_local_ = 0;
};

}  // namespace spinn::chip
