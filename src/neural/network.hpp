// Network description: populations of neurons and projections between them.
// This is the model a neuroscientist writes (PyNN-style); the map module
// places it onto chips/cores, generates multicast routing tables and builds
// the SDRAM synaptic rows.
//
// Two layers live here:
//  * `Network` — the compiled object the mapper consumes (id-based
//    references, fixed-point parameters).
//  * `NetworkDescription` — the declarative form a *client* writes
//    (name-based references, plain-double parameters: exactly what the
//    wire carries).  build() is the only producer of a Network, shared by
//    every description author — the socket protocol's `net` parser, the
//    typed net::NetBuilder, and the server's built-in apps — so one
//    description yields a bit-identical Network whoever authored it and
//    however it travelled, and every Network passed validate().
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "neural/neuron_models.hpp"
#include "neural/stdp.hpp"

namespace spinn::neural {

using PopulationId = std::uint32_t;

struct Population {
  PopulationId id = 0;
  std::string name;
  std::uint32_t size = 0;
  NeuronModel model = NeuronModel::Lif;
  LifParams lif;
  IzhParams izh;
  /// PoissonSource rate (Hz per neuron).
  double poisson_rate_hz = 0.0;
  /// SpikeSourceArray schedule: spike times (ms tick) per neuron.
  std::vector<std::vector<std::uint32_t>> spike_schedule;
  bool record = false;
};

enum class ConnectorKind : std::uint8_t {
  AllToAll,
  OneToOne,
  FixedProbability,
};

struct Connector {
  ConnectorKind kind = ConnectorKind::AllToAll;
  double probability = 1.0;  // FixedProbability only
  bool allow_self = false;   // self-connections when pre == post

  static Connector all_to_all() { return Connector{}; }
  static Connector one_to_one() {
    return Connector{ConnectorKind::OneToOne, 1.0, true};
  }
  static Connector fixed_probability(double p) {
    return Connector{ConnectorKind::FixedProbability, p, false};
  }
};

/// Weight/delay specification: fixed value or uniform range.
struct ValueDist {
  double lo = 0.0;
  double hi = 0.0;

  static ValueDist fixed(double v) { return ValueDist{v, v}; }
  static ValueDist uniform(double lo, double hi) { return ValueDist{lo, hi}; }

  /// A value drawn from `gen`, an Rng or a stream of its outputs
  /// (RngStream): a range takes one uniform(lo, hi) draw, a fixed value
  /// none.
  template <class Gen>
  double sample(Gen& gen) const {
    return lo >= hi ? lo : gen.uniform(lo, hi);
  }
};

struct Projection {
  PopulationId pre = 0;
  PopulationId post = 0;
  Connector connector;
  ValueDist weight = ValueDist::fixed(1.0);
  ValueDist delay_ms = ValueDist::fixed(1.0);
  bool inhibitory = false;
  /// STDP configuration; stdp.enabled makes the projection's synapses
  /// plastic (rows are written back to SDRAM after modification, §5.3).
  StdpParams stdp;
};

struct NetworkDescription;

/// Resolved name → population-index map, built once per description and
/// threaded through validation, admission costing and build() so none of
/// them redoes the linear name scans.  Duplicate names keep the first index.
using NameMap = std::unordered_map<std::string, PopulationId>;

/// The compiled network.  build() is its only producer: it fills the
/// populations (each `id` its index) and projections from a validated
/// description.
class Network {
 public:
  const std::vector<Population>& populations() const { return populations_; }
  const std::vector<Projection>& projections() const { return projections_; }
  const Population& population(PopulationId id) const {
    return populations_[id];
  }

 private:
  friend bool build(const NetworkDescription& desc, const NameMap& names,
                    Network* net, std::string* error);

  std::vector<Population> populations_;
  std::vector<Projection> projections_;
};

// ---- Declarative descriptions (the wire model) -----------------------------

/// One population as a client describes it.  Parameters are plain doubles —
/// the representation the wire carries — and build() quantises them to
/// S16.15 exactly once, so wire-submitted and embedded construction of the
/// same description agree bit-for-bit.  Only the fields for `model` are
/// meaningful; the rest keep their defaults (and stay off the wire).
struct PopulationDesc {
  std::string name;
  NeuronModel model = NeuronModel::Lif;
  std::uint32_t size = 0;
  // LIF (defaults mirror LifParams' construction doubles).
  double v_rest = -65.0;
  double v_reset = -70.0;
  double v_thresh = -50.0;
  double decay = 0.9048;
  double r_scale = 1.0;
  std::uint32_t refractory = 2;
  // Izhikevich (regular-spiking defaults, as IzhParams).
  double a = 0.02;
  double b = 0.2;
  double c = -65.0;
  double d = 8.0;
  // PoissonSource rate (Hz per neuron).
  double rate_hz = 0.0;
  // SpikeSourceArray schedule: ms-tick trains, exactly `size` of them.
  std::vector<std::vector<std::uint32_t>> schedule;
  bool record = true;
};

/// One projection, referencing populations by name.
struct ProjectionDesc {
  std::string pre;
  std::string post;
  Connector connector;
  ValueDist weight = ValueDist::fixed(1.0);
  ValueDist delay_ms = ValueDist::fixed(1.0);
  bool inhibitory = false;
  StdpParams stdp;
};

struct NetworkDescription {
  std::vector<PopulationDesc> populations;
  std::vector<ProjectionDesc> projections;
};

/// Whether populations of `model` record by default: stimuli you scheduled
/// (spike sources) and neurons you model (LIF/Izhikevich) record,
/// background noise (Poisson) does not.
bool default_record(NeuronModel model);

/// Description bounds enforced by validate().  These are *description*
/// sanity caps (a malformed or hostile submission must fail fast, before
/// any elaboration allocates); whether a valid description is admitted is
/// the server's cost model, and whether it fits a machine is placement's.
inline constexpr std::size_t kMaxPopulations = 256;
inline constexpr std::size_t kMaxProjections = 1024;
inline constexpr std::uint32_t kMaxPopulationSize = 1u << 20;
inline constexpr std::size_t kMaxNameLength = 32;
inline constexpr double kMaxWeight = 255.0;  // Synapse::pack_weight ceiling
inline constexpr double kMaxRateHz = 1e6;
inline constexpr std::uint32_t kMaxScheduleTick = 100'000'000;  // ms ticks
inline constexpr std::size_t kMaxScheduleEntries = 1u << 20;
inline constexpr std::uint64_t kMaxDescribedSynapses = 1u << 24;
inline constexpr std::uint32_t kMaxStdpWindowTicks = 100'000;

/// Build the name map: checks the population-count cap, each name's
/// charset/length and uniqueness.  On success *names resolves every
/// population.
bool resolve_names(const NetworkDescription& desc, NameMap* names,
                   std::string* error);

/// Per-element checks for one population: name charset plus every
/// size/parameter/schedule bound.  No cross-element checks (uniqueness is
/// resolve_names'); a line-oriented parser calls this per `pop` line so
/// range errors carry that line's attribution.
bool validate_population(const PopulationDesc& p, std::string* error);

/// Per-element checks for one projection: references resolve in `names`,
/// connector/weight/delay/stdp bounds.  The `proj`-line sibling of
/// validate_population.
bool validate_projection(const ProjectionDesc& proj, const NameMap& names,
                         std::string* error);

/// The estimated-synapse cap check, shared verbatim by validate() and the
/// wire parser's `end` so the two paths can never phrase the limit
/// differently.
bool check_synapse_cap(const NetworkDescription& desc, const NameMap& names,
                       std::string* error);

/// The shared construction points every description producer (wire parser,
/// net::NetBuilder, the server's built-in apps) goes through, so
/// model-dependent initialisation — today just `record`'s default — can
/// never diverge between them.
PopulationDesc make_population(std::string name, NeuronModel model,
                               std::uint32_t size);
ProjectionDesc make_projection(std::string pre, std::string post,
                               Connector connector, ValueDist weight,
                               ValueDist delay_ms, bool inhibitory = false);

/// Validate a description: population names (charset, length, uniqueness),
/// size/parameter/probability/weight/delay bounds, projection references,
/// and the estimated-synapse cap.  True when build() will succeed;
/// otherwise false with the offending element and token named in *error.
bool validate(const NetworkDescription& desc, std::string* error);

/// validate() that also hands back the resolved name map, so the caller
/// can thread it into estimated_synapses()/build() instead of paying the
/// name resolution again.
bool validate(const NetworkDescription& desc, NameMap* names,
              std::string* error);

/// Expected synapse count from connector statistics alone — no elaboration,
/// no RNG: all_to_all counts pairs, one_to_one the shorter side,
/// fixed_probability the mean ceil(p × pairs).  This is the size term the
/// server's admission cost charges before committing to a build.
std::uint64_t estimated_synapses(const NetworkDescription& desc);

/// estimated_synapses() with the names already resolved (no per-projection
/// linear scans).  Unresolvable references contribute zero, as before.
std::uint64_t estimated_synapses(const NetworkDescription& desc,
                                 const NameMap& names);

/// Compile a description into a Network.  Pure: the same description gives
/// the same Network (all stochastic elaboration happens later, in the
/// loader, under the machine seed).  Returns false with a reason in *error
/// when the description does not validate; *net is then unspecified.
bool build(const NetworkDescription& desc, Network* net, std::string* error);

/// build() for a description already validated against `names` (the wire
/// path: the per-line parser validated every element and `end` checked the
/// caps, so this only resolves projection indices through the map).  Still
/// fails cleanly — never indexes out of range — on a name missing from or
/// misresolved by a caller-supplied map.
bool build(const NetworkDescription& desc, const NameMap& names,
           Network* net, std::string* error);

}  // namespace spinn::neural
