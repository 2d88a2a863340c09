// The loader: the final design-automation stage (§5.3 "connectivity data
// constructed, and relevant input/output mechanisms deployed").
//
// Takes a placed-and-routed network and materialises it on the machine:
//  * writes each chip's multicast routing table;
//  * expands every projection into per-(source-neuron, target-core)
//    synaptic rows, charged against the target node's SDRAM;
//  * instantiates a NeuronApp on every used core and starts it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "map/placement.hpp"
#include "map/routing_gen.hpp"
#include "mesh/machine.hpp"
#include "neural/network.hpp"
#include "neural/neuron_app.hpp"
#include "neural/spike_record.hpp"

namespace spinn::map {

struct LoadReport {
  PlacementResult placement;
  RoutingStats routing;
  std::uint64_t total_synapses = 0;
  std::uint64_t total_rows = 0;
  std::uint64_t sdram_bytes = 0;
  std::uint64_t dtcm_ring_bytes = 0;
  bool ok = true;
  std::string error;
};

class Loader {
 public:
  explicit Loader(MapperConfig cfg) : cfg_(cfg) {}

  /// Place, route, build rows, install programs.  `recorder` may be null.
  /// The synapses draw from `rng`, which the load leaves after its last
  /// draw whichever generator made them (see ARCHITECTURE.md, src/map).
  LoadReport load(const neural::Network& net, mesh::Machine& machine,
                  neural::SpikeRecorder* recorder, Rng& rng);

  /// The application instances created by the last load (owned by the
  /// cores; pointers remain valid while the machine lives).
  const std::vector<neural::NeuronApp*>& apps() const { return apps_; }

 private:
  MapperConfig cfg_;
  std::vector<neural::NeuronApp*> apps_;
};

}  // namespace spinn::map
