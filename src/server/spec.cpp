#include "server/spec.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>

namespace spinn::server {

namespace {

// Each app is a deterministic NetworkDescription — the exact declarative
// form a wire-submitted net arrives in, compiled through the same
// neural::build.  Sizes are kept small enough that a session services in
// milliseconds; width/height/neurons_per_core in the spec scale the
// machine around them.

neural::NetworkDescription app_chain() {
  // A spike-source chain: scheduled stimuli (ms ticks 2, 8 and 5) fan into a
  // small LIF population.  The lightest app — first spike within ~3 ms.
  neural::NetworkDescription desc;
  auto src = neural::make_population("src", neural::NeuronModel::SpikeSourceArray, 2);
  src.schedule = {{2, 8}, {5}};
  desc.populations.push_back(std::move(src));
  desc.populations.push_back(neural::make_population("dst", neural::NeuronModel::Lif, 4));
  desc.projections.push_back(
      neural::make_projection("src", "dst", neural::Connector::all_to_all(),
                neural::ValueDist::fixed(30.0),
                neural::ValueDist::fixed(1.0)));
  return desc;
}

neural::NetworkDescription app_noise() {
  // Poisson noise driving an excitatory/inhibitory pair — the quickstart
  // network at session scale.
  neural::NetworkDescription desc;
  auto noise = neural::make_population("noise", neural::NeuronModel::PoissonSource, 64);
  noise.rate_hz = 40.0;
  desc.populations.push_back(std::move(noise));
  desc.populations.push_back(neural::make_population("exc", neural::NeuronModel::Lif, 128));
  desc.populations.push_back(neural::make_population("inh", neural::NeuronModel::Lif, 32));
  desc.projections.push_back(
      neural::make_projection("noise", "exc", neural::Connector::fixed_probability(0.2),
                neural::ValueDist::uniform(4.0, 8.0),
                neural::ValueDist::fixed(1.0)));
  desc.projections.push_back(
      neural::make_projection("exc", "inh", neural::Connector::fixed_probability(0.1),
                neural::ValueDist::fixed(3.0),
                neural::ValueDist::uniform(1.0, 4.0)));
  desc.projections.push_back(
      neural::make_projection("inh", "exc", neural::Connector::fixed_probability(0.1),
                neural::ValueDist::fixed(6.0), neural::ValueDist::fixed(1.0),
                /*inhibitory=*/true));
  return desc;
}

neural::NetworkDescription app_stdp() {
  // Poisson-driven plastic projection: exercises STDP row write-backs.
  neural::NetworkDescription desc;
  auto src = neural::make_population("src", neural::NeuronModel::PoissonSource, 48);
  src.rate_hz = 60.0;
  desc.populations.push_back(std::move(src));
  desc.populations.push_back(neural::make_population("dst", neural::NeuronModel::Lif, 48));
  auto proj = neural::make_projection("src", "dst",
                        neural::Connector::fixed_probability(0.3),
                        neural::ValueDist::fixed(12.0),
                        neural::ValueDist::fixed(1.0));
  proj.stdp.enabled = true;
  desc.projections.push_back(std::move(proj));
  return desc;
}

}  // namespace

const std::vector<std::string>& app_names() {
  static const std::vector<std::string> names = {"chain", "noise", "stdp"};
  return names;
}

bool known_app(const std::string& name) {
  for (const auto& n : app_names()) {
    if (n == name) return true;
  }
  return false;
}

const neural::NetworkDescription& app_description(const std::string& name) {
  static const neural::NetworkDescription chain = app_chain();
  static const neural::NetworkDescription noise = app_noise();
  static const neural::NetworkDescription stdp = app_stdp();
  if (name == "chain") return chain;
  if (name == "noise") return noise;
  if (name == "stdp") return stdp;
  throw std::invalid_argument("unknown app '" + name + "'");
}

bool validate(const SessionSpec& spec, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (spec.width == 0 || spec.height == 0) {
    return fail("machine dimensions must be >= 1");
  }
  if (spec.cores_per_chip == 0) return fail("cores_per_chip must be >= 1");
  if (spec.neurons_per_core == 0) {
    return fail("neurons_per_core must be >= 1");
  }
  if (spec.shards > 4096 || spec.threads > 4096) {
    return fail("shards/threads are capped at 4096");
  }
  // Admission control, not simulation limits: one open request must not be
  // able to OOM the long-lived server with a city-block of chips.
  if (static_cast<std::uint32_t>(spec.width) * spec.height > 65536) {
    return fail("machine capped at 65536 chips per session");
  }
  if (spec.net != nullptr) {
    // net_names is the parser's certificate that the description was
    // already validated element-by-element (with errors attributed to
    // their wire lines) — admission doesn't pay a second full pass.
    std::string net_error;
    if (spec.net_names == nullptr &&
        !neural::validate(*spec.net, &net_error)) {
      return fail("inline network: " + net_error);
    }
  } else if (!known_app(spec.app)) {
    return fail("unknown app '" + spec.app + "'");
  }
  // What the placer would refuse at load, refused before a session exists:
  // every chip's cores but its monitor run applications.
  const neural::NetworkDescription& desc =
      spec.net != nullptr ? *spec.net : app_description(spec.app);
  const std::string misfit = map::placement_error(
      desc.populations, spec.neurons_per_core,
      std::uint64_t{spec.width} * spec.height * (spec.cores_per_chip - 1u));
  if (!misfit.empty()) return fail(misfit);
  return true;
}

std::uint64_t estimated_synapses(const SessionSpec& spec) {
  if (spec.net != nullptr) {
    return spec.net_names != nullptr
               ? neural::estimated_synapses(*spec.net, *spec.net_names)
               : neural::estimated_synapses(*spec.net);
  }
  return neural::estimated_synapses(app_description(spec.app));
}

std::uint64_t admission_footprint(const SessionSpec& spec) {
  // Machine units plus the network's expected synapse count: the synapse
  // term is what makes a 10-neuron all-to-all blob and a 10-neuron chain
  // cost differently — machine dimensions alone can't see connectivity.
  // Both terms are bounded (65536 chips × 20 cores × 2^20 neurons ≈ 2^50;
  // synapses validated <= 2^24), so the sum cannot wrap.
  return static_cast<std::uint64_t>(spec.width) * spec.height *
             spec.cores_per_chip * spec.neurons_per_core +
         estimated_synapses(spec);
}

std::uint64_t admission_cost(const SessionSpec& spec, TimeNs initial_run) {
  const TimeNs bio = std::max(spec.bio_hint, initial_run);
  if (bio <= 0) return 0;
  const std::uint64_t bio_ms =
      (static_cast<std::uint64_t>(bio) + kMillisecond - 1) / kMillisecond;
  const std::uint64_t footprint = admission_footprint(spec);
  // Saturate: a 65536-chip × 2^20-neuron spec declaring 1e9 ms is ~2^70
  // cost units.  Wrapping would slip a budget-dwarfing session past
  // admission; saturation makes it exceed any finite budget instead.
  if (footprint != 0 &&
      bio_ms > std::numeric_limits<std::uint64_t>::max() / footprint) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return footprint * bio_ms;
}

SystemConfig system_config(const SessionSpec& spec) {
  SystemConfig cfg;
  cfg.machine.width = spec.width;
  cfg.machine.height = spec.height;
  cfg.machine.chip.num_cores = spec.cores_per_chip;
  cfg.machine.seed = spec.seed;
  if (spec.link_flight_ns > 0) {
    cfg.machine.chip.router.port.flight_ns = spec.link_flight_ns;
  }
  cfg.mapper.neurons_per_core = spec.neurons_per_core;
  cfg.mapper.scatter = spec.scatter;
  cfg.engine.kind = spec.engine;
  cfg.engine.shards = spec.shards;
  cfg.engine.threads = spec.threads;
  return cfg;
}

neural::Network build_network(const SessionSpec& spec) {
  neural::Network net;
  std::string error;
  const neural::NetworkDescription& desc =
      spec.net != nullptr ? *spec.net : app_description(spec.app);
  const bool ok =
      spec.net != nullptr && spec.net_names != nullptr
          // Wire path: validated per line by the parser — resolve the
          // projection indices through its map instead of a third
          // validate-plus-scan pass.
          ? neural::build(desc, *spec.net_names, &net, &error)
          : neural::build(desc, &net, &error);
  if (!ok) {
    // Admission validates before any build, so this only fires for an
    // embedded caller who skipped validate(); sessions catch it and report
    // a failed build.
    throw std::invalid_argument("invalid network description: " + error);
  }
  return net;
}

std::vector<neural::SpikeRecorder::Event> run_standalone(
    const SessionSpec& spec, TimeNs duration) {
  System sys(system_config(spec));
  if (spec.boot) sys.boot();
  const map::LoadReport load = sys.load(build_network(spec));
  if (!load.ok) return {};
  sys.run(duration);
  return sys.spikes().events();
}

bool parse_u64_strict(const std::string& text, std::uint64_t max,
                      std::uint64_t* out) {
  // from_chars: rejects signs, whitespace and locale surprises; the
  // explicit end check rejects trailing junk ("12x" is an error, not 12).
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v > max) return false;
  *out = v;
  return true;
}

bool parse_bool(const std::string& text, bool* out) {
  if (text == "1" || text == "true" || text == "on") {
    *out = true;
    return true;
  }
  if (text == "0" || text == "false" || text == "off") {
    *out = false;
    return true;
  }
  return false;
}

bool parse_run_ms(const std::string& text, TimeNs* duration) {
  // Bounded parse: !(ms > 0) rejects NaN/garbage, the cap keeps the
  // double to TimeNs conversion representable (~11.5 days of bio time).
  // from_chars, not atof: the grammar must not bend to the host's
  // LC_NUMERIC (an embedding application may use a comma-decimal locale).
  constexpr double kMaxRunMs = 1e9;
  double ms = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, ms);
  if (ec != std::errc{} || ptr != end || !(ms > 0.0) || ms > kMaxRunMs) {
    return false;
  }
  *duration = static_cast<TimeNs>(ms * kMillisecond);
  return true;
}

bool split_kv(const std::string& token, std::string* key, std::string* value,
              std::string* error) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) {
    *error = "expected key=value, got '" + token + "'";
    return false;
  }
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

bool apply_kv(SessionSpec& spec, const std::string& key,
              const std::string& value, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  // Per-key inclusive bounds: wider than anything sensible, narrow enough
  // that a typo can't request a 4-billion-shard engine or truncate into a
  // machine the client never asked for.
  struct Bound {
    const char* key;
    std::uint64_t max;
  };
  static constexpr Bound kBounds[] = {
      {"width", 0xFFFF},           {"height", 0xFFFF},
      {"cores", kCoresPerChip},    {"neurons_per_core", 1u << 20},
      {"shards", 4096},            {"threads", 4096},
      {"seed", ~std::uint64_t{0}}, {"link_flight_ns", kSecond},
      {"bio_hint_ms", 1000000},  // ~17 min of biological time
  };
  std::uint64_t n = 0;
  for (const Bound& b : kBounds) {
    if (key != b.key) continue;
    if (!parse_u64_strict(value, b.max, &n)) {
      return fail("'" + key + "' expects an unsigned integer <= " +
                  std::to_string(b.max) + ", got '" + value + "'");
    }
    break;
  }
  if (key == "width") {
    spec.width = static_cast<std::uint16_t>(n);
  } else if (key == "height") {
    spec.height = static_cast<std::uint16_t>(n);
  } else if (key == "cores") {
    spec.cores_per_chip = static_cast<CoreIndex>(n);
  } else if (key == "neurons_per_core") {
    spec.neurons_per_core = static_cast<std::uint32_t>(n);
  } else if (key == "seed") {
    spec.seed = n;
  } else if (key == "link_flight_ns") {
    spec.link_flight_ns = static_cast<TimeNs>(n);
  } else if (key == "bio_hint_ms") {
    spec.bio_hint = static_cast<TimeNs>(n) * kMillisecond;
  } else if (key == "shards") {
    spec.shards = static_cast<std::uint32_t>(n);
  } else if (key == "threads") {
    spec.threads = static_cast<std::uint32_t>(n);
  } else if (key == "app") {
    if (!known_app(value)) return fail("unknown app '" + value + "'");
    spec.app = value;
  } else if (key == "engine") {
    if (value == "serial") {
      spec.engine = sim::EngineKind::Serial;
    } else if (value == "sharded") {
      spec.engine = sim::EngineKind::Sharded;
    } else {
      return fail("engine must be 'serial' or 'sharded', got '" + value +
                  "'");
    }
  } else if (key == "scatter") {
    if (!parse_bool(value, &spec.scatter)) {
      return fail("'scatter' expects a boolean, got '" + value + "'");
    }
  } else if (key == "boot") {
    if (!parse_bool(value, &spec.boot)) {
      return fail("'boot' expects a boolean, got '" + value + "'");
    }
  } else {
    return fail("unknown key '" + key + "'");
  }
  return true;
}

}  // namespace spinn::server
