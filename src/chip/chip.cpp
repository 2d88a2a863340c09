#include "chip/chip.hpp"

namespace spinn::chip {

Chip::Chip(sim::Simulator& sim, ChipCoord coord, const ChipConfig& config,
           Rng& seed_source)
    : sim_(sim),
      coord_(coord),
      cfg_(config),
      clock_(config.core_clock_hz, config.core_ipc,
             seed_source.normal(0.0, config.clock_drift_ppm_sigma)),
      rng_(seed_source.next()),
      system_noc_(sim_, cfg_.system_noc),
      comms_noc_(sim_, cfg_.comms_noc),
      router_(sim_, coord_, cfg_.router) {
  // Comms NoC: cores inject -> router; router local route -> cores.
  comms_noc_.set_router_sink([this](const router::Packet& p) {
    router_.receive(p, std::nullopt);
  });
  comms_noc_.set_core_sink([this](CoreIndex c, const router::Packet& p) {
    if (c < num_cores()) core(c).packet_interrupt(p);
  });
  router_.set_local_sink([this](router::CoreSet cores,
                                const router::Packet& p) {
    comms_noc_.deliver(cores, p);
  });

  cores_.reserve(cfg_.num_cores);
  for (CoreIndex i = 0; i < cfg_.num_cores; ++i) {
    auto c = std::make_unique<Core>(sim_, CoreId{coord_, i}, clock_,
                                    system_noc_, rng_.next());
    c->set_mc_send([this](const router::Packet& p) { comms_noc_.inject(p); });
    cores_.push_back(std::move(c));
  }
}

void Chip::set_actor(sim::ActorId actor) {
  actor_ = actor;
  router_.set_actor(actor);
  comms_noc_.set_actor(actor);
  system_noc_.set_actor(actor);
  for (auto& c : cores_) c->set_actor(actor);
}

void Chip::run_self_test_and_election(
    std::function<void(std::optional<CoreIndex>)> done) {
  sysctl_.reset();
  // Every core starts self-test at once; durations differ (process spread,
  // memory test ordering), so completion order is effectively random.  The
  // first core to finish reads the arbitration register and wins.
  struct Election {
    std::function<void(std::optional<CoreIndex>)> done;
    CoreIndex remaining;
    bool resolved = false;
  };
  auto state = std::make_shared<Election>();
  state->done = std::move(done);
  state->remaining = num_cores();

  for (CoreIndex i = 0; i < num_cores(); ++i) {
    const bool fails = core(i).state() == CoreState::Failed ||
                       rng_.chance(cfg_.core_fail_prob);
    if (fails) core(i).mark_failed();
    // Self-test takes 100..200 us of local clock time.
    const auto duration = static_cast<TimeNs>(
        rng_.uniform(100.0, 200.0) * static_cast<double>(kMicrosecond));
    // Keyed to this chip's actor: the kick-off may come from a boot event
    // executing under the root actor, but the self-test belongs to the chip.
    sim_.after_as(duration, actor_, [this, i, fails, state] {
      --state->remaining;
      if (!fails && !state->resolved) {
        if (sysctl_.read_monitor_arbiter(i)) {
          state->resolved = true;
          state->done(i);
        }
      }
      if (state->remaining == 0 && !state->resolved) {
        state->resolved = true;
        state->done(std::nullopt);  // whole chip dead: neighbours must act
      }
    });
  }
}

void Chip::start_timers(TimeNs nominal_period) {
  timers_running_ = true;
  timer_period_local_ = clock_.local_period(nominal_period);
  // A small random phase: chips do not start their tick trains aligned.
  const auto phase = static_cast<TimeNs>(
      rng_.uniform(0.0, static_cast<double>(timer_period_local_)));
  // Keyed to this chip's actor: start_all_timers runs at top level but the
  // whole tick train (and everything it spawns) belongs to the chip.
  sim_.after_as(phase, actor_, [this] { timer_tick(); },
                sim::EventPriority::Interrupt);
}

void Chip::stop_timers() { timers_running_ = false; }

void Chip::timer_tick() {
  if (!timers_running_) return;
  const std::optional<CoreIndex> monitor = sysctl_.monitor();
  for (CoreIndex i = 0; i < num_cores(); ++i) {
    if (monitor.has_value() && i == *monitor) continue;  // monitor ≠ app core
    core(i).timer_interrupt();
  }
  sim_.after(timer_period_local_, [this] { timer_tick(); },
             sim::EventPriority::Interrupt);
}

TimeNs Chip::total_core_busy_ns() const {
  TimeNs total = 0;
  for (const auto& c : cores_) total += c->stats().busy_ns;
  return total;
}

std::uint64_t Chip::total_overruns() const {
  std::uint64_t total = 0;
  for (const auto& c : cores_) total += c->stats().overruns;
  return total;
}

}  // namespace spinn::chip
