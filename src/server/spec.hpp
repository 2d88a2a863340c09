// SessionSpec: what a client asks the server to simulate.
//
// A spec is a *description* — machine dimensions, application, seed, engine
// choice — that the server compiles into a core::System on demand.  The same
// compilation functions serve standalone reference runs, which is how the
// determinism contract is phrased and tested: a session's spike stream must
// be bit-identical to run_standalone() of the same spec (tests/
// server_test.cpp), whatever engine the session was multiplexed onto and
// whether its engine came fresh from the allocator or reused from the pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"

namespace spinn::server {

struct SessionSpec {
  // Machine ----------------------------------------------------------------
  std::uint16_t width = 2;
  std::uint16_t height = 2;
  CoreIndex cores_per_chip = 6;
  std::uint64_t seed = 1;
  /// Inter-chip link flight-time override in ns (0 = model default).  Under
  /// the sharded engine this is also the conservative window width.
  TimeNs link_flight_ns = 0;

  // Mapping ----------------------------------------------------------------
  std::uint32_t neurons_per_core = 64;
  bool scatter = false;

  // Application ------------------------------------------------------------
  /// One of app_names(): "chain", "noise" or "stdp".  Ignored when `net`
  /// is set.
  std::string app = "noise";
  /// Inline network description: an arbitrary client-described net (the
  /// wire `net` verb, or an embedded caller) instead of a built-in app.
  /// Shared, immutable — specs copy cheaply and the description cannot
  /// drift between admission costing and the build.
  std::shared_ptr<const neural::NetworkDescription> net;
  /// Resolved name map certifying that `net` has already been fully
  /// validated (the wire parser validates per line and sets this from
  /// NetParser::take_names()).  When present, admission skips
  /// re-validating the description and build_network() resolves projection
  /// indices through it instead of redoing linear name scans.  Embedded
  /// callers may leave it null: `net` is then validated and resolved from
  /// scratch on every use, exactly as before.
  std::shared_ptr<const neural::NameMap> net_names;
  /// Run the distributed boot sequence before loading.
  bool boot = false;
  /// How much biological time the client intends to run.  Purely an
  /// admission-control declaration (see admission_cost); it does not
  /// schedule anything and under-declaring is allowed.
  TimeNs bio_hint = 0;

  // Engine -----------------------------------------------------------------
  sim::EngineKind engine = sim::EngineKind::Serial;
  std::uint32_t shards = 0;   // sharded engine only; 0 = one per hw thread
  std::uint32_t threads = 0;  // sharded engine only; 0 = min(shards, hw)
};

/// Registered application builders.
const std::vector<std::string>& app_names();
bool known_app(const std::string& name);

/// The description a built-in app compiles from — the same declarative
/// form a wire-submitted net arrives in, so built-in and client-described
/// sessions share one compilation path (neural::build).  Throws
/// std::invalid_argument for a name that is not a known_app(), so a
/// mistyped app fails build_network(), run_standalone() and
/// estimated_synapses() instead of simulating another net.
const neural::NetworkDescription& app_description(const std::string& name);

/// Validate a spec (dimensions, app name or inline description, and that
/// the placer fits the net on the machine: map::placement_error).  Returns
/// true when compilable; otherwise false with a reason in *error.
bool validate(const SessionSpec& spec, std::string* error);

/// The per-millisecond admission charge of a spec: machine footprint
/// (chips × cores × neurons per core) plus the network's estimated synapse
/// count (from connector statistics — no elaboration happens at admission
/// time).  Exposed so error messages and tests can show the breakdown.
std::uint64_t admission_footprint(const SessionSpec& spec);
std::uint64_t estimated_synapses(const SessionSpec& spec);

/// Estimated admission cost of a session: admission_footprint ×
/// declared biological milliseconds (the larger of spec.bio_hint and
/// `initial_run`, rounded up to a whole millisecond).  A spec with no
/// declared bio time costs 0 — admission then degenerates to the
/// resident-count cap.  SessionServer budgets the sum of resident costs
/// against ServerConfig::cost_budget.
std::uint64_t admission_cost(const SessionSpec& spec, TimeNs initial_run = 0);

/// The SystemConfig a spec compiles to (shared by sessions and standalone
/// reference runs, so both build byte-identical machines).
SystemConfig system_config(const SessionSpec& spec);

/// The network a spec describes: the inline description when `spec.net` is
/// set, the app's description otherwise — compiled through neural::build
/// either way.  Pure function of the spec: all stochastic elaboration
/// (weights, connectivity draws) happens later in the loader under the
/// machine seed.  Throws std::invalid_argument for an unknown app or a
/// description that does not validate (sessions surface it as a failed
/// build).
neural::Network build_network(const SessionSpec& spec);

/// Reference run: the spec end-to-end on a private System, no server
/// involved.  Returns the full spike stream a session running the same spec
/// for `duration` must reproduce bit-for-bit.
std::vector<neural::SpikeRecorder::Event> run_standalone(
    const SessionSpec& spec, TimeNs duration);

/// A `key=value` option token, split at its first '='.  A token with no
/// '=' is false, with the error every grammar answers for it in *error.
bool split_kv(const std::string& token, std::string* key, std::string* value,
              std::string* error);

/// Apply one `key=value` pair from the line protocol (see docs/SERVER.md for
/// the key reference).  Returns false with a reason in *error for unknown
/// keys or malformed values.
bool apply_kv(SessionSpec& spec, const std::string& key,
              const std::string& value, std::string* error);

/// Parse a protocol run duration: a decimal number of biological
/// milliseconds in (0, 1e9], locale-independent.  False for NaN, garbage,
/// non-positive or out-of-range input — the one grammar both the stdio
/// repl and the socket transport accept.
bool parse_run_ms(const std::string& text, TimeNs* duration);

/// Strict whole-token unsigned parse with an inclusive upper bound — the
/// one hardening rule every wire grammar shares (spec `key=value` pairs
/// and the `net` block): rejects signs, leading/trailing junk, overflow
/// and out-of-range values, so a bad request becomes an error instead of
/// a truncated number.
bool parse_u64_strict(const std::string& text, std::uint64_t max,
                      std::uint64_t* out);

/// The one boolean grammar of every wire key (`scatter=`, `boot=`, the net
/// block's `record=`, `inh=` and `self=`, the fault verb's `conv=`):
/// `1|true|on` and `0|false|off`, nothing else.
bool parse_bool(const std::string& text, bool* out);

}  // namespace spinn::server
