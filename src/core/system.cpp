#include "core/system.hpp"

namespace spinn {

System::System(const SystemConfig& cfg)
    : cfg_(cfg),
      owned_engine_(sim::make_engine(cfg.engine, cfg.machine.seed)),
      engine_(owned_engine_.get()),
      recorder_(engine_->num_shards()) {
  machine_ = std::make_unique<mesh::Machine>(*engine_, cfg_.machine);
}

System::System(const SystemConfig& cfg, sim::ISimulationEngine& engine)
    : cfg_(cfg), engine_(&engine), recorder_(engine.num_shards()) {
  // Re-entrant setup: whatever the engine ran before, a reset makes it
  // bit-indistinguishable from a new one before the machine wires into it.
  engine_->reset(cfg_.machine.seed);
  machine_ = std::make_unique<mesh::Machine>(*engine_, cfg_.machine);
}

System::~System() = default;

boot::BootReport System::boot() {
  boot_ = std::make_unique<boot::BootController>(engine_->root(), *machine_,
                                                 cfg_.boot);
  bool finished = false;
  boot::BootReport result;
  boot_->start([&](const boot::BootReport& r) {
    result = r;
    finished = true;
  });
  // The boot protocol is self-timed; drive the simulator until it reports.
  // The boot controller's events touch chips machine-wide, so this phase
  // always runs through the engine's sequential globally-ordered step.
  const TimeNs deadline = engine_->now() + 60 * kSecond;
  while (!finished && engine_->now() < deadline && !engine_->empty()) {
    engine_->step();
  }
  if (!finished) {
    // Stalled boot: report partial progress and end the attempt, so any
    // leftover boot traffic terminates at the chips instead of calling back
    // into the controller from a later (possibly parallel) run phase.
    boot_->abandon();
    result = boot_->report();
  }
  // Straggler boot events (late flood-fill blocks, acks) may still be
  // pending; the sharded engine routes root-actor events through its
  // sequential merge during run(), so they are safe to leave queued.
  return result;
}

map::LoadReport System::load(const neural::Network& net) {
  loader_ = std::make_unique<map::Loader>(cfg_.mapper);
  Rng rng(cfg_.machine.seed ^ 0x10adD00Dull);
  return loader_->load(net, *machine_, &recorder_, rng);
}

void System::run(TimeNs duration) {
  if (!timers_started_) {
    machine_->start_all_timers();
    timers_started_ = true;
  }
  engine_->run_until(engine_->now() + duration);
  recorder_.merge();
}

}  // namespace spinn
