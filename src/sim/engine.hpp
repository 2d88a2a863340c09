// The simulation-engine abstraction: one machine model, two execution
// strategies.
//
// The paper's GALS argument (§3, §4) is that a million-core machine can only
// be built as locally-synchronous islands stitched by an asynchronous,
// bounded-latency fabric.  The simulator mirrors that structure at the host
// level: the *serial* engine runs everything through one event queue (the
// reference implementation), while the *sharded* engine partitions the chip
// mesh into per-shard queues driven by worker threads and synchronised with
// a conservative bounded-asynchrony window equal to the minimum inter-shard
// link latency.  Both produce bit-identical observable results — the
// determinism-equivalence suite (tests/sharded_sim_test.cpp) enforces it.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/simulator.hpp"

namespace spinn::sim {

enum class EngineKind : std::uint8_t {
  Serial,   // single event queue, single thread — the reference
  Sharded,  // per-shard queues, worker threads, conservative windows
};

struct EngineConfig {
  EngineKind kind = EngineKind::Serial;
  /// Number of shards the chip mesh is partitioned into (contiguous
  /// chip-index regions, which matches the linear-scan placement so most
  /// traffic stays intra-shard).  0 = one shard per hardware thread.
  std::uint32_t shards = 0;
  /// Worker threads driving the shards.  0 = min(shards, hardware threads).
  /// Thread count never affects results, only wall-clock time.
  std::uint32_t threads = 0;
};

/// Engine interface shared by the serial reference and the sharded engine.
/// Scenario code (core::System, tests, benches) drives simulation time
/// through this; components keep scheduling against their Simulator context.
class ISimulationEngine {
 public:
  virtual ~ISimulationEngine() = default;

  /// Context of the root actor (host-side code, boot controller, tests).
  virtual Simulator& root() = 0;
  virtual const Simulator& root() const = 0;

  /// Partition actors 0..num_actors-1 across shards (actor 0 stays with the
  /// root context).  Called once by the machine wiring before any
  /// context_of() request.
  virtual void map_actors(ActorId num_actors) = 0;

  /// Scheduling context owning `actor`'s events.
  virtual Simulator& context_of(ActorId actor) = 0;

  virtual std::size_t num_shards() const = 0;

  /// Committed global time: the maximum any shard has reached.
  virtual TimeNs now() const = 0;

  /// Execute the single globally-earliest pending event (sequential merge
  /// across shards).  Returns false when nothing is pending, after
  /// advancing every clock to the latest reserved instant (as the reserved
  /// events would have, had they run).  Safe for phases whose events touch
  /// state across shards (the boot protocol).
  virtual bool step() = 0;

  /// Advance to `until` (events at exactly `until` still run).
  virtual std::uint64_t run_until(TimeNs until) = 0;

  virtual bool empty() const = 0;
  virtual std::size_t pending() const = 0;
  virtual std::uint64_t executed() const = 0;

  /// Tighten the conservative parallel window: cross-shard handoffs are
  /// guaranteed to arrive at least `lookahead` after their send time.  The
  /// machine wiring calls this with the minimum inter-shard link latency.
  virtual void constrain_lookahead(TimeNs lookahead) { (void)lookahead; }

  /// Return the engine to its freshly-constructed state under a new seed:
  /// all queues reset (clocks to 0, counters zeroed), RNG streams reseeded,
  /// actor map dropped, lookahead unconstrained.  Expensive resources (the
  /// sharded engine's worker-thread pool) survive, which is the point: a
  /// reset engine drives a new scenario bit-identically to a
  /// newly-constructed one without paying construction again (the server's
  /// EnginePool relies on this).  Must not be called while a run is in
  /// flight.
  virtual void reset(std::uint64_t seed) = 0;
};

/// The reference implementation: one Simulator, one queue, zero threads.
class SerialEngine final : public ISimulationEngine {
 public:
  explicit SerialEngine(std::uint64_t seed = 1) : sim_(seed) {}

  Simulator& root() override { return sim_; }
  const Simulator& root() const override { return sim_; }
  void map_actors(ActorId num_actors) override { (void)num_actors; }
  Simulator& context_of(ActorId actor) override {
    (void)actor;
    return sim_;
  }
  std::size_t num_shards() const override { return 1; }
  TimeNs now() const override { return sim_.now(); }
  bool step() override { return sim_.queue().step(); }
  std::uint64_t run_until(TimeNs until) override {
    return sim_.run_until(until);
  }
  bool empty() const override { return sim_.queue().empty(); }
  std::size_t pending() const override { return sim_.queue().pending(); }
  std::uint64_t executed() const override { return sim_.queue().executed(); }
  void reset(std::uint64_t seed) override { sim_.reset(seed); }

 private:
  Simulator sim_;
};

/// Build an engine from config; `seed` seeds the root context's RNG (and,
/// for the sharded engine, forks every shard context's stream from it).
std::unique_ptr<ISimulationEngine> make_engine(const EngineConfig& cfg,
                                               std::uint64_t seed);

}  // namespace spinn::sim
