#include "map/loader.hpp"

#include "common/rng_stream.hpp"

namespace spinn::map {

namespace {

using Staging = std::vector<std::vector<neural::StagedSynapse>>;

/// Expands one projection into synapses, staging each for its target slice
/// in generation order; returns how many it staged.  The draws are the
/// load's connectivity stream: pre neurons in order, and for each its
/// candidate post neurons in order, every candidate of a fixed-probability
/// projection taking one chance(p) trial and every synapse its delay and
/// then its weight.  The self pair of a projection without self
/// connections is no candidate and takes no trial.  `gen` is the load's
/// Rng or an RngStream of its outputs; either makes the same draws.
template <class Gen>
std::uint64_t expand(const neural::Projection& proj,
                     const neural::Network& net,
                     const PlacementResult& placement, Gen& gen,
                     Staging& staged) {
  const neural::Connector& conn = proj.connector;
  const Chance chance(conn.probability);
  const std::vector<std::size_t>& post_slices =
      placement.by_population[proj.post];
  std::uint64_t count = 0;

  // Stages the synapse from `key` to neuron j of slice q.
  const auto add = [&](RoutingKey key, std::size_t q, std::uint32_t j) {
    // Delay first, then weight, as named draws: C++ leaves the order in
    // which a call's arguments are evaluated unspecified, so drawing both
    // inside one argument list made the synapses depend on the compiler.
    const double d_ms = proj.delay_ms.sample(gen);
    const double w = proj.weight.sample(gen);
    neural::Synapse syn;
    syn.weight_raw = neural::Synapse::pack_weight(w);
    syn.inhibitory = proj.inhibitory;
    syn.plastic = proj.stdp.enabled;
    auto delay = static_cast<std::uint8_t>(d_ms + 0.5);
    if (delay < 1) delay = 1;
    if (delay > neural::kMaxDelayTicks) delay = neural::kMaxDelayTicks;
    syn.delay = delay;
    syn.target =
        static_cast<std::uint16_t>(j - placement.slices[q].first_neuron);
    staged[q].push_back({key, syn});
    ++count;
  };

  // Connects `key` to the candidates [lo, hi) of slice q.  A fixed-
  // probability scan jumps over each run of failed trials in one call,
  // which makes exactly the draws of one chance() per candidate.
  const auto connect = [&](RoutingKey key, std::size_t q, std::uint32_t lo,
                           std::uint32_t hi) {
    if (conn.kind == neural::ConnectorKind::AllToAll) {
      for (std::uint32_t j = lo; j < hi; ++j) add(key, q, j);
      return;
    }
    for (std::uint32_t j = lo;; ++j) {
      j += static_cast<std::uint32_t>(gen.chance_failures(chance, hi - j));
      if (j >= hi) return;
      add(key, q, j);
    }
  };

  // One past the last neuron of slice q.
  const auto end_of = [&](std::size_t q) {
    return placement.slices[q].first_neuron + placement.slices[q].num_neurons;
  };

  const bool skip_self = proj.pre == proj.post && !conn.allow_self;
  const std::uint32_t post_size = net.population(proj.post).size;
  std::size_t partner = 0;  // post_slices entry of a one-to-one partner
  for (const std::size_t p : placement.by_population[proj.pre]) {
    const Slice& ps = placement.slices[p];
    for (std::uint32_t n = 0; n < ps.num_neurons; ++n) {
      const std::uint32_t i = ps.first_neuron + n;
      const RoutingKey key = ps.key_base + n;
      if (conn.kind == neural::ConnectorKind::OneToOne) {
        if (i >= post_size) return count;
        // Partners ascend with i, so their slice only moves forward.
        while (end_of(post_slices[partner]) <= i) ++partner;
        add(key, post_slices[partner], i);
        continue;
      }
      for (const std::size_t q : post_slices) {
        const std::uint32_t lo = placement.slices[q].first_neuron;
        const std::uint32_t hi = end_of(q);
        if (skip_self && i >= lo && i < hi) {
          connect(key, q, lo, i);
          connect(key, q, i + 1, hi);
        } else {
          connect(key, q, lo, hi);
        }
      }
    }
  }
  return count;
}

}  // namespace

LoadReport Loader::load(const neural::Network& net, mesh::Machine& machine,
                        neural::SpikeRecorder* recorder, Rng& rng) {
  LoadReport report;
  apps_.clear();

  // 1. Place.
  report.placement = place(net, machine, cfg_);
  if (!report.placement.fits) {
    report.ok = false;
    report.error = report.placement.error;
    return report;
  }
  const PlacementResult& placement = report.placement;

  // 2. Route and install tables.
  const RoutingResult routing =
      generate_routing(net, placement, machine.topology(), cfg_);
  report.routing = routing.stats;
  if (!install_tables(routing.tables, machine).ok) {
    report.ok = false;
    report.error = "multicast table overflow on a chip";
    return report;
  }

  // 3. Generate the synapses, staged per target slice (every slice has a
  //    core of its own); step 4 builds each slice's rows from its stage.
  //    A load with a block's worth of fixed-probability candidates draws
  //    from a vector stream of rng's outputs where the CPU has one.
  Staging staged(placement.slices.size());
  const auto expand_all = [&](auto& gen) {
    for (const neural::Projection& proj : net.projections()) {
      report.total_synapses += expand(proj, net, placement, gen, staged);
    }
  };
  std::uint64_t candidates = 0;
  for (const neural::Projection& proj : net.projections()) {
    if (proj.connector.kind == neural::ConnectorKind::FixedProbability) {
      candidates += std::uint64_t{net.population(proj.pre).size} *
                    net.population(proj.post).size;
    }
  }
  if (candidates >= RngStream::kBlock && RngStream::available()) {
    RngStream stream(rng);
    expand_all(stream);
  } else {
    expand_all(rng);
  }

  // 4. Charge SDRAM and install the applications.
  for (std::size_t si = 0; si < placement.slices.size(); ++si) {
    const Slice& s = placement.slices[si];
    const neural::Population& pop = net.population(s.pop);
    auto store = std::make_shared<neural::RowStore>(staged[si]);
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

    auto app =
        std::make_unique<neural::NeuronApp>(sc, std::move(store), recorder);
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
