// The top-level public API: build a SpiNNaker machine, boot it, load a
// spiking neural network, run it in biological real time, inspect spikes,
// fabric behaviour and energy.
//
//   spinn::SystemConfig cfg;
//   cfg.machine.width = 8;  cfg.machine.height = 8;
//   cfg.engine.kind = sim::EngineKind::Sharded;   // optional: parallel run
//   spinn::System sys(cfg);
//   sys.boot();
//   neural::Network net;
//   neural::build(desc, &net, &error);   // desc: a NetworkDescription
//   sys.load(net);
//   sys.run(100 * kMillisecond);
//   for (auto& e : sys.spikes().events()) ...
//
// Results are engine-independent: the sharded engine produces bit-identical
// spike traces, counters and final state to the serial reference
// (tests/sharded_sim_test.cpp enforces it).
#pragma once

#include <memory>
#include <vector>

#include "boot/boot_controller.hpp"
#include "energy/energy_model.hpp"
#include "map/loader.hpp"
#include "mesh/machine.hpp"
#include "neural/network.hpp"
#include "neural/spike_record.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"

namespace spinn {

struct SystemConfig {
  mesh::MachineConfig machine;
  map::MapperConfig mapper;
  boot::BootConfig boot;
  sim::EngineConfig engine;  // serial reference by default
};

class System {
 public:
  explicit System(const SystemConfig& cfg = SystemConfig{});

  /// Build a system around a *borrowed* engine (e.g. a lease from the
  /// server's EnginePool): the engine is reset under cfg.machine.seed and
  /// rewired to this system's machine, so the run is bit-identical to one
  /// on a freshly-constructed engine, but expensive engine resources (the
  /// sharded worker-thread pool) are reused across systems.  The caller
  /// keeps ownership and must keep the engine alive for the System's
  /// lifetime; cfg.engine is ignored (the engine already exists).
  System(const SystemConfig& cfg, sim::ISimulationEngine& engine);

  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Root scheduling context (host-side code and tests schedule here).
  sim::Simulator& simulator() { return engine_->root(); }
  sim::ISimulationEngine& engine() { return *engine_; }
  mesh::Machine& machine() { return *machine_; }
  const mesh::Machine& machine() const { return *machine_; }
  TimeNs now() const { return engine_->now(); }

  /// Run the distributed boot sequence (§5.2) to completion and return the
  /// report.  Optional: load() works on an unbooted machine too (the
  /// host-side loader then plays the role of the boot ROM).
  boot::BootReport boot();

  /// Place, route and load a network; cores start immediately.
  map::LoadReport load(const neural::Network& net);

  /// Advance biological real time.  Starts the 1 ms timers on first call.
  void run(TimeNs duration);

  neural::SpikeRecorder& spikes() { return recorder_; }
  const neural::SpikeRecorder& spikes() const { return recorder_; }
  const std::vector<neural::NeuronApp*>& apps() const {
    return loader_ ? loader_->apps() : no_apps_;
  }

  mesh::Machine::FabricTotals fabric_totals() const {
    return machine_->fabric_totals();
  }
  energy::EnergyBreakdown energy(
      const energy::EnergyParams& params = energy::EnergyParams{}) const {
    return energy::account(*machine_, engine_->now(), params);
  }

 private:
  SystemConfig cfg_;
  /// Set only by the owning constructor; borrowed engines stay with their
  /// owner.  Declared before engine_ so the raw pointer never dangles.
  std::unique_ptr<sim::ISimulationEngine> owned_engine_;
  sim::ISimulationEngine* engine_ = nullptr;
  std::unique_ptr<mesh::Machine> machine_;
  std::unique_ptr<boot::BootController> boot_;
  std::unique_ptr<map::Loader> loader_;
  /// One buffer per engine shard; run() merges them when the engine
  /// returns.
  neural::SpikeRecorder recorder_;
  bool timers_started_ = false;
  std::vector<neural::NeuronApp*> no_apps_;
};

}  // namespace spinn
