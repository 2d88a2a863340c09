#include "neural/network.hpp"

#include <algorithm>
#include <cmath>

#include "neural/synapse.hpp"

namespace spinn::neural {

// ---- Declarative descriptions ----------------------------------------------

bool default_record(NeuronModel model) {
  return model != NeuronModel::PoissonSource;
}

PopulationDesc make_population(std::string name, NeuronModel model,
                               std::uint32_t size) {
  PopulationDesc p;
  p.name = std::move(name);
  p.model = model;
  p.size = size;
  p.record = default_record(model);
  return p;
}

ProjectionDesc make_projection(std::string pre, std::string post,
                               Connector connector, ValueDist weight,
                               ValueDist delay_ms, bool inhibitory) {
  ProjectionDesc proj;
  proj.pre = std::move(pre);
  proj.post = std::move(post);
  proj.connector = connector;
  proj.weight = weight;
  proj.delay_ms = delay_ms;
  proj.inhibitory = inhibitory;
  return proj;
}

namespace {

bool valid_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxNameLength) return false;
  for (const char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '-' ||
                    ch == '.';
    if (!ok) return false;
  }
  return true;
}

/// Finite and inside [lo, hi] — a single predicate so every parameter
/// bound rejects NaN the same way (NaN fails every comparison).
bool in_range(double v, double lo, double hi) {
  return std::isfinite(v) && v >= lo && v <= hi;
}

/// Expected synapses of one projection from connector statistics.
double expected_pairs(const NetworkDescription& desc, const NameMap& names,
                      const ProjectionDesc& proj) {
  const auto pre_it = names.find(proj.pre);
  const auto post_it = names.find(proj.post);
  if (pre_it == names.end() || post_it == names.end()) return 0.0;
  const auto pre_i = static_cast<std::size_t>(pre_it->second);
  const auto post_i = static_cast<std::size_t>(post_it->second);
  if (pre_i >= desc.populations.size() ||
      post_i >= desc.populations.size()) {
    return 0.0;
  }
  const double pre = static_cast<double>(desc.populations[pre_i].size);
  const double post = static_cast<double>(desc.populations[post_i].size);
  const bool recurrent = pre_i == post_i && !proj.connector.allow_self;
  switch (proj.connector.kind) {
    case ConnectorKind::OneToOne:
      return std::min(pre, post);
    case ConnectorKind::AllToAll:
      return pre * post - (recurrent ? std::min(pre, post) : 0.0);
    case ConnectorKind::FixedProbability:
      return proj.connector.probability *
             (pre * post - (recurrent ? std::min(pre, post) : 0.0));
  }
  return 0.0;
}

}  // namespace

std::uint64_t estimated_synapses(const NetworkDescription& desc,
                                 const NameMap& names) {
  // Ceil per projection, so fractional expectations round against the
  // client (a p=0 projection still charges 0 — the mean really is zero).
  // Sizes are capped at 2^20 and projections at 2^10, so each term stays
  // below 2^40: representable in a double, far from uint64 wrap.
  std::uint64_t total = 0;
  for (const auto& proj : desc.projections) {
    total += static_cast<std::uint64_t>(
        std::ceil(expected_pairs(desc, names, proj)));
  }
  return total;
}

std::uint64_t estimated_synapses(const NetworkDescription& desc) {
  NameMap names;
  names.reserve(desc.populations.size());
  for (std::size_t i = 0; i < desc.populations.size(); ++i) {
    // emplace keeps the first index on a duplicate name (an invalid
    // description), as resolve_names does.
    names.emplace(desc.populations[i].name,
                  static_cast<PopulationId>(i));
  }
  return estimated_synapses(desc, names);
}

bool resolve_names(const NetworkDescription& desc, NameMap* names,
                   std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (desc.populations.size() > kMaxPopulations) {
    return fail("too many populations (cap " +
                std::to_string(kMaxPopulations) + ")");
  }
  names->clear();
  names->reserve(desc.populations.size());
  for (std::size_t i = 0; i < desc.populations.size(); ++i) {
    const std::string& name = desc.populations[i].name;
    if (!valid_name(name)) {
      return fail("population name '" + name + "' must be 1-" +
                  std::to_string(kMaxNameLength) +
                  " chars of [A-Za-z0-9_.-]");
    }
    if (!names->emplace(name, static_cast<PopulationId>(i)).second) {
      return fail("duplicate population name '" + name + "'");
    }
  }
  return true;
}

bool check_synapse_cap(const NetworkDescription& desc, const NameMap& names,
                       std::string* error) {
  const std::uint64_t synapses = estimated_synapses(desc, names);
  if (synapses > kMaxDescribedSynapses) {
    if (error != nullptr) {
      *error = "description expands to ~" + std::to_string(synapses) +
               " synapses, cap is " + std::to_string(kMaxDescribedSynapses);
    }
    return false;
  }
  return true;
}

bool validate_population(const PopulationDesc& p, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const std::string where = "population '" + p.name + "': ";
  if (!valid_name(p.name)) {
    return fail("population name '" + p.name + "' must be 1-" +
                std::to_string(kMaxNameLength) + " chars of [A-Za-z0-9_.-]");
  }
  if (p.size == 0 || p.size > kMaxPopulationSize) {
    return fail(where + "size must be in [1, " +
                std::to_string(kMaxPopulationSize) + "]");
  }
  switch (p.model) {
    case NeuronModel::Lif:
      if (!in_range(p.v_rest, -60000.0, 60000.0) ||
          !in_range(p.v_reset, -60000.0, 60000.0) ||
          !in_range(p.v_thresh, -60000.0, 60000.0)) {
        return fail(where + "membrane potentials must be finite and in "
                            "[-60000, 60000]");
      }
      if (!in_range(p.decay, 0.0, 1.0)) {
        return fail(where + "decay must be in [0, 1]");
      }
      if (!in_range(p.r_scale, 0.0, 4096.0)) {
        return fail(where + "r_scale must be in [0, 4096]");
      }
      if (p.refractory > 255) {
        return fail(where + "refractory must be <= 255 ticks");
      }
      break;
    case NeuronModel::Izhikevich:
      if (!in_range(p.a, -1000.0, 1000.0) ||
          !in_range(p.b, -1000.0, 1000.0) ||
          !in_range(p.c, -60000.0, 60000.0) ||
          !in_range(p.d, -60000.0, 60000.0)) {
        return fail(where + "izhikevich parameters out of range");
      }
      break;
    case NeuronModel::PoissonSource:
      if (!in_range(p.rate_hz, 0.0, kMaxRateHz)) {
        return fail(where + "rate must be in [0, " +
                    std::to_string(static_cast<long long>(kMaxRateHz)) +
                    "] Hz");
      }
      break;
    case NeuronModel::SpikeSourceArray: {
      if (p.schedule.size() != p.size) {
        return fail(where + "schedule has " +
                    std::to_string(p.schedule.size()) +
                    " spike trains for size " + std::to_string(p.size));
      }
      std::size_t entries = 0;
      for (const auto& train : p.schedule) {
        entries += train.size();
        for (const std::uint32_t tick : train) {
          if (tick > kMaxScheduleTick) {
            return fail(where + "schedule tick " + std::to_string(tick) +
                        " exceeds the cap " +
                        std::to_string(kMaxScheduleTick));
          }
        }
      }
      if (entries > kMaxScheduleEntries) {
        return fail(where + "schedule has " + std::to_string(entries) +
                    " entries, cap is " +
                    std::to_string(kMaxScheduleEntries));
      }
      break;
    }
  }
  return true;
}

bool validate_projection(const ProjectionDesc& proj, const NameMap& names,
                         std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  const std::string where =
      "projection " + proj.pre + "->" + proj.post + ": ";
  if (names.find(proj.pre) == names.end()) {
    return fail("projection references unknown population '" + proj.pre +
                "'");
  }
  if (names.find(proj.post) == names.end()) {
    return fail("projection references unknown population '" + proj.post +
                "'");
  }
  if (proj.connector.kind == ConnectorKind::FixedProbability &&
      !in_range(proj.connector.probability, 0.0, 1.0)) {
    return fail(where + "probability must be in [0, 1]");
  }
  if (proj.connector.kind == ConnectorKind::OneToOne &&
      !proj.connector.allow_self) {
    // The loader always wires the diagonal for one-to-one; a description
    // asking to exclude it would be silently ignored — reject instead.
    return fail(where +
                "one_to_one cannot exclude self-connections (the "
                "diagonal is the connector)");
  }
  if (!in_range(proj.weight.lo, 0.0, kMaxWeight) ||
      !in_range(proj.weight.hi, 0.0, kMaxWeight) ||
      proj.weight.lo > proj.weight.hi) {
    return fail(where + "weight must be in [0, " +
                std::to_string(static_cast<int>(kMaxWeight)) +
                "] with lo <= hi (use inh=1 for inhibition)");
  }
  if (!in_range(proj.delay_ms.lo, 0.0, kMaxDelayTicks) ||
      !in_range(proj.delay_ms.hi, 0.0, kMaxDelayTicks) ||
      proj.delay_ms.lo > proj.delay_ms.hi) {
    return fail(where + "delay must be in [0, " +
                std::to_string(kMaxDelayTicks) + "] ms with lo <= hi");
  }
  if (proj.stdp.enabled) {
    if (proj.inhibitory) {
      return fail(where + "plastic projections are excitatory only");
    }
    if (!in_range(proj.stdp.a_plus, 0.0, kMaxWeight) ||
        !in_range(proj.stdp.a_minus, 0.0, kMaxWeight) ||
        !in_range(proj.stdp.w_max, 0.0, kMaxWeight) ||
        proj.stdp.window_ticks > kMaxStdpWindowTicks) {
      return fail(where + "stdp parameters out of range");
    }
  }
  return true;
}

bool validate(const NetworkDescription& desc, NameMap* names,
              std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (desc.populations.empty()) return fail("no populations described");
  if (desc.projections.size() > kMaxProjections) {
    return fail("too many projections (cap " +
                std::to_string(kMaxProjections) + ")");
  }
  if (!resolve_names(desc, names, error)) return false;
  for (const PopulationDesc& p : desc.populations) {
    if (!validate_population(p, error)) return false;
  }
  for (const ProjectionDesc& proj : desc.projections) {
    if (!validate_projection(proj, *names, error)) return false;
  }
  return check_synapse_cap(desc, *names, error);
}

bool validate(const NetworkDescription& desc, std::string* error) {
  NameMap names;
  return validate(desc, &names, error);
}

bool build(const NetworkDescription& desc, Network* net,
           std::string* error) {
  NameMap names;
  if (!validate(desc, &names, error)) return false;
  return build(desc, names, net, error);
}

bool build(const NetworkDescription& desc, const NameMap& names,
           Network* net, std::string* error) {
  *net = Network{};
  net->populations_.reserve(desc.populations.size());
  for (const PopulationDesc& pd : desc.populations) {
    Population& p = net->populations_.emplace_back();
    p.id = static_cast<PopulationId>(net->populations_.size() - 1);
    p.name = pd.name;
    p.size = pd.size;
    p.model = pd.model;
    p.lif.v_rest = Accum::from_double(pd.v_rest);
    p.lif.v_reset = Accum::from_double(pd.v_reset);
    p.lif.v_thresh = Accum::from_double(pd.v_thresh);
    p.lif.decay = Accum::from_double(pd.decay);
    p.lif.r_scale = Accum::from_double(pd.r_scale);
    p.lif.refractory_ticks = static_cast<std::uint8_t>(pd.refractory);
    p.izh.a = Accum::from_double(pd.a);
    p.izh.b = Accum::from_double(pd.b);
    p.izh.c = Accum::from_double(pd.c);
    p.izh.d = Accum::from_double(pd.d);
    p.poisson_rate_hz =
        pd.model == NeuronModel::PoissonSource ? pd.rate_hz : 0.0;
    if (pd.model == NeuronModel::SpikeSourceArray) {
      p.spike_schedule = pd.schedule;
    }
    p.record = pd.record;
  }
  net->projections_.reserve(desc.projections.size());
  for (const ProjectionDesc& proj : desc.projections) {
    // Resolve through the map; bounds-check the indices so a stale or
    // caller-supplied map can only fail the build, never index out of the
    // population vector.
    const auto pre_it = names.find(proj.pre);
    const auto post_it = names.find(proj.post);
    if (pre_it == names.end() || post_it == names.end() ||
        pre_it->second >= desc.populations.size() ||
        post_it->second >= desc.populations.size()) {
      if (error != nullptr) {
        *error = "projection " + proj.pre + "->" + proj.post +
                 " does not resolve in the name map";
      }
      return false;
    }
    Projection& p = net->projections_.emplace_back();
    p.pre = pre_it->second;
    p.post = post_it->second;
    p.connector = proj.connector;
    p.weight = proj.weight;
    p.delay_ms = proj.delay_ms;
    p.inhibitory = proj.inhibitory;
    p.stdp = proj.stdp;
  }
  return true;
}

}  // namespace spinn::neural
