// The scheduling context components hold: an event queue plus a root
// deterministic RNG.  Components receive a Simulator& at construction and
// schedule events against it; nothing touches global state.
//
// Under the serial engine there is exactly one Simulator.  Under the sharded
// engine each shard owns one, and the cross-shard handoff() primitive routes
// through the engine's mailboxes; everything else behaves identically, so
// component code is engine-agnostic.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"

namespace spinn::sim {

class ShardedSimulator;

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  EventQueue& queue() { return queue_; }
  const EventQueue& queue() const { return queue_; }

  TimeNs now() const { return queue_.now(); }

  /// Root RNG.  Components should take a split() of this at construction so
  /// that adding a component does not perturb the streams of the others.
  Rng& rng() { return rng_; }

  /// Convenience wrappers.
  void at(TimeNs when, EventAction&& action,
          EventPriority priority = EventPriority::Default) {
    queue_.schedule_at(when, std::move(action), priority);
  }
  void after(TimeNs delay, EventAction&& action,
             EventPriority priority = EventPriority::Default) {
    queue_.schedule_in(delay, std::move(action), priority);
  }

  /// Actor-tagged wrappers: key and execute the event under an explicit
  /// actor.  Used at the non-event entry points into a component's event
  /// tree (timer start, self-test kick-off) — see EventQueue::schedule_at_as.
  void at_as(TimeNs when, ActorId actor, EventAction&& action,
             EventPriority priority = EventPriority::Default) {
    queue_.schedule_at_as(when, actor, std::move(action), priority);
  }
  void after_as(TimeNs delay, ActorId actor, EventAction&& action,
                EventPriority priority = EventPriority::Default) {
    queue_.schedule_in_as(delay, actor, std::move(action), priority);
  }

  /// Cross-actor handoff after `delay`: keyed to the current (sender) actor,
  /// executed under `exec_actor`.  On a standalone/serial Simulator this is
  /// a local insert; on a sharded shard context the engine routes it to the
  /// destination actor's shard (via a mailbox during parallel windows).
  /// `delay` must be >= the engine's conservative lookahead window when the
  /// destination lives on another shard.
  void handoff(TimeNs delay, ActorId exec_actor, EventAction&& action,
               EventPriority priority = EventPriority::Default);

  /// Shard this context belongs to (0 for standalone/serial).
  std::uint32_t shard() const { return shard_; }

  std::uint64_t run_until(TimeNs until) { return queue_.run_until(until); }
  std::uint64_t run() { return queue_.run(); }

  /// Return this context to its freshly-constructed state under a new seed:
  /// queue reset (clock 0, counters zeroed) and RNG reseeded.  A reset
  /// context is bit-indistinguishable from `Simulator(seed)` — the basis of
  /// engine reuse across server sessions.
  void reset(std::uint64_t seed) {
    queue_.reset();
    rng_ = Rng(seed);
  }

 private:
  friend class ShardedSimulator;

  EventQueue queue_;
  Rng rng_;
  ShardedSimulator* engine_ = nullptr;  // null => standalone / serial
  std::uint32_t shard_ = 0;
};

}  // namespace spinn::sim
