// The sharded parallel simulation engine.
//
// The chip mesh is partitioned into contiguous chip-index regions, one event
// queue per shard, driven by a pool of worker threads.  Synchronisation is a
// conservative bounded-asynchrony window equal to the minimum inter-shard
// link latency (the same lookahead argument arbor uses with the minimum
// synaptic delay, and the same GALS argument the simulated machine itself is
// built on): within a window [T0, T0+W) every shard runs independently,
// because no cross-shard packet sent inside the window can arrive before
// T0+W.  Cross-shard deliveries are posted into the destination shard's
// mailbox and become visible at the next window barrier.  The window rests
// on the link latency alone, so it runs at every thread count (one thread
// runs every shard's slice itself) and at every shard count (one shard has
// no cross-shard send, so its window spans the whole run).  Only root-actor
// events, which may reach across shards, and an engine of several shards
// with no lookahead run on the sequential merge.
//
// Determinism: events are ordered by the shard-stable (when, priority,
// actor, seq) key (see sim/event_queue.hpp).  Mailbox entries carry the key
// stamped on the sender's queue, so the merged per-shard order equals the
// serial engine's global order projected onto each shard — observable
// results are bit-identical to the serial reference for any shard or thread
// count.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "sim/engine.hpp"

namespace spinn::sim {

class ShardedSimulator final : public ISimulationEngine {
 public:
  /// `shards`/`threads` of 0 mean "one per hardware thread".
  ShardedSimulator(std::uint64_t seed, std::uint32_t shards,
                   std::uint32_t threads);
  ~ShardedSimulator() override;

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  // ISimulationEngine -------------------------------------------------------
  Simulator& root() override { return *shards_.front().ctx; }
  const Simulator& root() const override { return *shards_.front().ctx; }
  void map_actors(ActorId num_actors) override;
  Simulator& context_of(ActorId actor) override;
  std::size_t num_shards() const override { return shards_.size(); }
  TimeNs now() const override;
  bool step() override;
  std::uint64_t run_until(TimeNs until) override;
  bool empty() const override;
  std::size_t pending() const override;
  std::uint64_t executed() const override;
  void constrain_lookahead(TimeNs lookahead) override;
  void reset(std::uint64_t seed) override;

  // Sharded-specific --------------------------------------------------------
  /// Route a cross-actor handoff from `src`'s shard (called by
  /// Simulator::handoff).  Same shard: local insert.  Different shard: the
  /// destination's mailbox during a window, a direct insert on the merge.
  void post_handoff(Simulator& src, TimeNs delay, ActorId exec_actor,
                    EventAction&& action, EventPriority priority);

  /// Shard context executing an event on the calling thread right now
  /// (null when idle).  Observation sinks (spike recording) use this to
  /// find their shard-local buffer.
  static Simulator* current_context();

  /// Conservative window width currently in force (0 = not yet constrained:
  /// several shards then run every event on the merge; one shard needs no
  /// lookahead).
  TimeNs lookahead() const { return lookahead_; }

  /// Windows committed so far, at any thread count.  Observability: a run
  /// that opens none ran every event on the sequential merge (several
  /// shards with no lookahead, or a span of root-actor events);
  /// tests/sharded_sim_test.cpp pins when windows open with this counter.
  std::uint64_t windows_opened() const { return windows_opened_; }

  /// The events of each window's busiest worker, summed over the windows so
  /// far.  Every window waits for its busiest worker, so
  /// executed() / (threads x this) is the share of the threads' window
  /// time that did work.  A count of the partition, not of the host: it
  /// repeats exactly for a given run.
  std::uint64_t busiest_worker_events() const {
    return busiest_worker_events_;
  }

  /// Events executed on `shard`'s queue, in windows and on the merge.
  std::uint64_t shard_executed(std::size_t shard) const {
    return shards_.at(shard).ctx->queue().executed();
  }

 private:
  struct Mail {
    EventKey key;
    ActorId exec_actor = kRootActor;
    EventAction action;
  };
  struct Shard {
    std::unique_ptr<Simulator> ctx;
    /// Outgoing cross-shard events, one slot per destination shard.
    /// Written only by the shard's owning worker, drained only by the
    /// coordinator at window barriers.
    std::vector<std::vector<Mail>> outbox;
  };

  /// Earliest pending root-exec event's `when` across every shard's queue
  /// (kTimeNever if none): the upper bound of any window.
  TimeNs earliest_root_when() const;
  /// Index of the shard holding the globally-earliest event with
  /// when <= limit, or -1.
  int min_head_shard(TimeNs limit) const;
  /// Execute `shard`'s head event with all shard clocks synced to it.
  void step_shard(std::size_t shard);
  void run_slice(std::uint32_t worker, TimeNs bound, bool inclusive);
  void drain_mailboxes();
  void ensure_workers();
  void release_window();
  void await_workers();
  void worker_main(std::uint32_t worker);

  std::vector<Shard> shards_;
  std::vector<std::uint32_t> shard_of_actor_{0};  // actor 0 -> shard 0
  ActorId mapped_actors_ = 1;
  TimeNs lookahead_ = 0;

  // Worker pool: num_threads_ - 1 workers, spawned on the first window (the
  // coordinator is slot 0).
  std::uint32_t num_threads_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> phase_{0};
  std::atomic<std::uint32_t> done_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<bool> shutdown_{false};
  Mutex wake_mutex_;
  CondVar wake_cv_;
  /// First exception thrown inside a window slice; rethrown by the
  /// coordinator after the barrier.
  Mutex error_mutex_;
  std::exception_ptr pending_error_ SPINN_GUARDED_BY(error_mutex_);
  // Window parameters are deliberately plain (not GUARDED_BY, not atomic):
  // the coordinator writes them strictly before the phase_ release
  // fetch_add, and workers read them strictly after observing the new
  // phase with acquire — the phase counter is the publication fence, so a
  // mutex here would buy nothing but a barrier-hot-path lock.  The same
  // protocol covers the per-shard outboxes and worker_executed_: each
  // worker writes only its own shards' outboxes and its own slot during a
  // window, and the coordinator reads them (drain_mailboxes, the window's
  // counts) only after every worker has checked in through the done_
  // acquire.
  TimeNs window_bound_ = 0;
  bool window_inclusive_ = false;
  bool window_active_ = false;
  /// Events each worker ran in the current window, written only by that
  /// worker (slot 0: the coordinator) before it checks in.
  std::vector<std::uint64_t> worker_executed_;
  std::uint64_t windows_opened_ = 0;
  std::uint64_t busiest_worker_events_ = 0;
};

}  // namespace spinn::sim
