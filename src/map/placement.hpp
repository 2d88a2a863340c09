// Placement: carving populations into core-sized slices and assigning them
// to application cores (§5.3: "Neurons must be mapped to processors...").
//
// The virtualised-topology principle (§3.2) means *any* neuron can go on
// *any* processor; the default strategy packs slices onto chips in linear
// scan order, which keeps populations contiguous (proximal placement
// minimises routing cost, §3.2, but is an optimisation, not a correctness
// requirement — tests also exercise a scattering strategy).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "mesh/machine.hpp"
#include "neural/network.hpp"

namespace spinn::map {

struct MapperConfig {
  /// Max neurons a single core simulates in real time (E11 explores the
  /// actual feasible number; 256 is a comfortable default at 200 MHz).
  std::uint32_t neurons_per_core = 256;
  /// Omit routing entries where default routing (straight-through) suffices.
  bool default_route_compression = true;
  /// Run the key/mask merging pass after table generation.
  bool minimize_tables = true;
  /// Scatter slices round-robin over chips instead of packing linearly
  /// (exercises the virtual-topology claim).
  bool scatter = false;
};

struct Slice {
  neural::PopulationId pop = 0;
  std::uint32_t first_neuron = 0;  // within the population
  std::uint32_t num_neurons = 0;
  CoreId core{};
  RoutingKey key_base = 0;  // key of neuron `first_neuron`
};

struct PlacementResult {
  std::vector<Slice> slices;
  /// Slice indices per population.
  std::vector<std::vector<std::size_t>> by_population;
  std::size_t cores_used = 0;
  std::size_t chips_used = 0;
  /// False when the net cannot be placed; `error` then says why, with the
  /// numbers a client needs to resize the net or the machine.
  bool fits = true;
  std::string error;
};

/// Cores on `c` available to applications (everything but the monitor).
std::vector<CoreIndex> app_cores(const chip::Chip& c);

/// Why place() refuses `populations` (each with a `name` and a `size`:
/// a net's or a description's) at `neurons_per_core` on `app_cores`
/// application cores, or "" when it places them.  It refuses a slice wider
/// than the key layout (1 << kNeuronKeyBits neurons), whose upper neurons
/// would send the next slice's keys, and a net that needs more cores than
/// there are.  Admission asks the same before a session is opened.  The
/// errors reach a wire client who described the net, so they carry the
/// numbers to fix it with.
template <class Populations>
std::string placement_error(const Populations& populations,
                            std::uint32_t neurons_per_core,
                            std::uint64_t app_cores) {
  if (neurons_per_core == 0) return "neurons_per_core must be >= 1";
  constexpr std::uint32_t kMaxSlice = std::uint32_t{1} << kNeuronKeyBits;
  std::uint64_t neurons = 0;
  std::uint64_t slices = 0;
  for (const auto& pop : populations) {
    const std::uint32_t widest = std::min(neurons_per_core, pop.size);
    if (widest > kMaxSlice) {
      return "population '" + pop.name + "' needs " + std::to_string(widest) +
             "-neuron slices at " + std::to_string(neurons_per_core) +
             " neurons_per_core, but the key layout holds " +
             std::to_string(kMaxSlice) + " neurons per slice";
    }
    neurons += pop.size;
    slices += (std::uint64_t{pop.size} + neurons_per_core - 1) /
              neurons_per_core;
  }
  if (slices > app_cores) {
    return "network does not fit on the machine: " + std::to_string(neurons) +
           " neurons need " + std::to_string(slices) + " cores at " +
           std::to_string(neurons_per_core) + " neurons_per_core, of " +
           std::to_string(app_cores) + " application cores";
  }
  return {};
}

/// Cuts every population into slices of at most cfg.neurons_per_core
/// neurons, one slice per core, or refuses the net as placement_error()
/// says, counting the machine's working application cores.
PlacementResult place(const neural::Network& net, mesh::Machine& machine,
                      const MapperConfig& cfg);

/// The slice holding `neuron` of population `pop` (index into slices).
std::optional<std::size_t> slice_of(const PlacementResult& placement,
                                    neural::PopulationId pop,
                                    std::uint32_t neuron);

}  // namespace spinn::map
