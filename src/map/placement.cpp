#include "map/placement.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace spinn::map {

std::vector<CoreIndex> app_cores(const chip::Chip& c) {
  std::vector<CoreIndex> out;
  const std::optional<CoreIndex> monitor = c.monitor_core();
  // Without an elected monitor yet, reserve core 0 by convention.
  const CoreIndex reserved = monitor.value_or(0);
  for (CoreIndex i = 0; i < c.num_cores(); ++i) {
    if (i == reserved) continue;
    if (c.core(i).state() == chip::CoreState::Failed) continue;
    out.push_back(i);
  }
  return out;
}

PlacementResult place(const neural::Network& net, mesh::Machine& machine,
                      const MapperConfig& cfg) {
  PlacementResult result;
  result.by_population.resize(net.populations().size());

  // Enumerate every usable application core in machine scan order.
  struct FreeCore {
    CoreId id;
  };
  std::vector<FreeCore> free_cores;
  const mesh::Topology& topo = machine.topology();
  for (std::size_t i = 0; i < machine.num_chips(); ++i) {
    const ChipCoord cc = topo.coord_of(i);
    if (machine.chip_failed(cc)) continue;
    for (const CoreIndex core : app_cores(machine.chip_at(cc))) {
      free_cores.push_back(FreeCore{CoreId{cc, core}});
    }
  }
  result.error =
      placement_error(net.populations(), cfg.neurons_per_core,
                      free_cores.size());
  if (!result.error.empty()) {
    result.fits = false;
    return result;
  }

  std::size_t cursor = 0;   // next free core (linear packing)
  std::size_t scatter_stride = 0;
  if (cfg.scatter && !free_cores.empty()) {
    // Visit cores with a stride co-prime to the count: spreads consecutive
    // slices across distant chips.
    scatter_stride = free_cores.size() / 2 + 1;
    while (scatter_stride > 1 &&
           std::gcd(scatter_stride, free_cores.size()) != 1) {
      --scatter_stride;
    }
  }

  std::size_t slice_counter = 0;
  std::vector<bool> used(free_cores.size(), false);
  std::size_t scatter_pos = 0;

  // placement_error() counted a free core for every slice.
  auto next_core = [&]() -> CoreId {
    if (cfg.scatter) {
      for (std::size_t tries = 0; tries < free_cores.size(); ++tries) {
        scatter_pos = (scatter_pos + scatter_stride) % free_cores.size();
        if (!used[scatter_pos]) {
          used[scatter_pos] = true;
          return free_cores[scatter_pos].id;
        }
      }
      throw std::logic_error("place: no free core left for a slice");
    }
    return free_cores.at(cursor++).id;
  };

  for (const neural::Population& pop : net.populations()) {
    std::uint32_t placed = 0;
    while (placed < pop.size) {
      const std::uint32_t chunk =
          std::min(cfg.neurons_per_core, pop.size - placed);
      Slice s;
      s.pop = pop.id;
      s.first_neuron = placed;
      s.num_neurons = chunk;
      s.core = next_core();
      s.key_base =
          static_cast<RoutingKey>(slice_counter << kNeuronKeyBits);
      result.by_population[pop.id].push_back(result.slices.size());
      result.slices.push_back(s);
      placed += chunk;
      ++slice_counter;
    }
  }

  // Usage statistics.
  std::vector<bool> chip_touched(machine.num_chips(), false);
  for (const Slice& s : result.slices) {
    ++result.cores_used;
    chip_touched[topo.index(s.core.chip)] = true;
  }
  for (const bool t : chip_touched) {
    if (t) ++result.chips_used;
  }
  return result;
}

std::optional<std::size_t> slice_of(const PlacementResult& placement,
                                    neural::PopulationId pop,
                                    std::uint32_t neuron) {
  if (pop >= placement.by_population.size()) return std::nullopt;
  const std::vector<std::size_t>& owned = placement.by_population[pop];
  if (owned.empty()) return std::nullopt;
  // place() cuts a population into consecutive chunks of the first chunk's
  // size (only the last may be shorter), so the owner is one division away.
  const std::uint32_t chunk = placement.slices[owned.front()].num_neurons;
  const std::size_t k = neuron / chunk;
  if (k >= owned.size()) return std::nullopt;
  const Slice& s = placement.slices[owned[k]];
  if (neuron >= s.first_neuron + s.num_neurons) return std::nullopt;
  return owned[k];
}

}  // namespace spinn::map
