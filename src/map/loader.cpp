#include "map/loader.hpp"

namespace spinn::map {

LoadReport Loader::load(const neural::Network& net, mesh::Machine& machine,
                        neural::SpikeRecorder* recorder, Rng& rng) {
  LoadReport report;
  apps_.clear();

  // 1. Place.
  report.placement = place(net, machine, cfg_);
  if (!report.placement.fits) {
    // Quantify the miss: this string reaches a session's status (and so a
    // wire client who described the net), where "does not fit" alone
    // gives no hint whether to shrink the net or grow the machine.
    std::uint64_t required = 0;
    for (const auto& p : net.populations()) {
      required += (static_cast<std::uint64_t>(p.size) +
                   cfg_.neurons_per_core - 1) /
                  cfg_.neurons_per_core;
    }
    report.ok = false;
    report.error = "network does not fit on the machine: " +
                   std::to_string(net.total_neurons()) + " neurons need " +
                   std::to_string(required) + " cores at " +
                   std::to_string(cfg_.neurons_per_core) +
                   " neurons_per_core";
    return report;
  }
  const PlacementResult& placement = report.placement;

  // 2. Route and install tables.
  RoutingResult routing =
      generate_routing(net, placement, machine.topology(), cfg_);
  report.routing = routing.stats;
  for (auto& [coord, entries] : routing.tables) {
    router::MulticastTable& table = machine.chip_at(coord).router().mc_table();
    for (const router::McEntry& e : entries) {
      if (!table.add(e)) {
        report.ok = false;
        report.error = "multicast table overflow on a chip";
        return report;
      }
    }
  }

  // 3. Build synaptic rows, one RowStore per slice (every slice has a core
  //    of its own).
  std::vector<std::shared_ptr<neural::RowStore>> stores(
      placement.slices.size());
  for (auto& store : stores) store = std::make_shared<neural::RowStore>();

  for (const neural::Projection& proj : net.projections()) {
    const neural::Population& pre = net.population(proj.pre);
    const neural::Population& post = net.population(proj.post);
    for (std::uint32_t i = 0; i < pre.size; ++i) {
      const auto pre_slice = slice_of(placement, proj.pre, i);
      if (!pre_slice.has_value()) continue;
      const Slice& ps = placement.slices[*pre_slice];
      const RoutingKey key = ps.key_base + (i - ps.first_neuron);

      auto add_synapse = [&](std::uint32_t j) {
        // Delay first, then weight, as named draws: C++ leaves the order in
        // which a call's arguments are evaluated unspecified, so drawing
        // both inside one argument list made the synapses depend on the
        // compiler.
        const double d_ms = proj.delay_ms.sample(rng);
        const double w = proj.weight.sample(rng);
        const auto post_slice = slice_of(placement, proj.post, j);
        if (!post_slice.has_value()) return;
        const Slice& qs = placement.slices[*post_slice];
        neural::Synapse syn;
        syn.weight_raw = neural::Synapse::pack_weight(w);
        syn.inhibitory = proj.inhibitory;
        syn.plastic = proj.stdp.enabled;
        auto delay = static_cast<std::uint8_t>(d_ms + 0.5);
        if (delay < 1) delay = 1;
        if (delay > neural::kMaxDelayTicks) delay = neural::kMaxDelayTicks;
        syn.delay = delay;
        syn.target = static_cast<std::uint16_t>(j - qs.first_neuron);
        neural::SynapticRow& row = stores[*post_slice]->row_for(key);
        row.synapses.push_back(syn);
        row.plastic = row.plastic || syn.plastic;
        ++report.total_synapses;
      };

      switch (proj.connector.kind) {
        case neural::ConnectorKind::AllToAll:
          for (std::uint32_t j = 0; j < post.size; ++j) {
            if (proj.pre == proj.post && i == j &&
                !proj.connector.allow_self) {
              continue;
            }
            add_synapse(j);
          }
          break;
        case neural::ConnectorKind::OneToOne:
          if (i < post.size) {
            add_synapse(i);
          }
          break;
        case neural::ConnectorKind::FixedProbability:
          for (std::uint32_t j = 0; j < post.size; ++j) {
            if (proj.pre == proj.post && i == j &&
                !proj.connector.allow_self) {
              continue;
            }
            if (rng.chance(proj.connector.probability)) {
              add_synapse(j);
            }
          }
          break;
      }
    }
  }

  // 4. Charge SDRAM and install the applications.
  for (std::size_t si = 0; si < placement.slices.size(); ++si) {
    const Slice& s = placement.slices[si];
    const neural::Population& pop = net.population(s.pop);
    auto& store = stores[si];
    report.total_rows += store->num_rows();

    chip::Chip& chip = machine.chip_at(s.core.chip);
    const std::uint64_t bytes = store->total_bytes();
    if (bytes > 0 &&
        !chip.sdram().allocate(static_cast<std::uint32_t>(bytes))) {
      report.ok = false;
      report.error = "SDRAM exhausted on a node";
      return report;
    }
    report.sdram_bytes += bytes;

    neural::SliceConfig sc;
    sc.model = pop.model;
    sc.num_neurons = s.num_neurons;
    sc.lif = pop.lif;
    sc.izh = pop.izh;
    sc.poisson_rate_hz = pop.poisson_rate_hz;
    if (pop.model == neural::NeuronModel::SpikeSourceArray) {
      sc.spike_schedule.assign(
          pop.spike_schedule.begin() + s.first_neuron,
          pop.spike_schedule.begin() + s.first_neuron + s.num_neurons);
    }
    sc.key_base = s.key_base;
    sc.record = pop.record;
    // STDP parameters: the first plastic projection targeting this
    // population configures the target cores' update rule.
    for (const neural::Projection& proj : net.projections()) {
      if (proj.post == s.pop && proj.stdp.enabled) {
        sc.stdp = proj.stdp;
        break;
      }
    }

    auto app = std::make_unique<neural::NeuronApp>(sc, store, recorder);
    report.dtcm_ring_bytes +=
        neural::InputRing::kSlots * 4ull * s.num_neurons;
    apps_.push_back(app.get());
    chip::Core& core = chip.core(s.core.core);
    core.load_program(std::move(app));
    core.start();
  }

  return report;
}

}  // namespace spinn::map
