// Discrete-event simulation kernel: the event queue.
//
// Everything in the simulator — packet hops, DMA completions, 1 ms timer
// interrupts, glitches on self-timed wires — is an event.  Events at equal
// timestamps are ordered by (priority, actor, per-actor sequence) so runs
// are fully deterministic regardless of container internals.
//
// The *actor* in the key is the shard-stable replacement for a global
// insertion counter: each actor (one per chip, plus actor 0 for the host /
// test harness) numbers the events it schedules with its own counter, and
// every event inherits the actor of the event that scheduled it.  Because an
// actor executes its own events in a deterministic order whatever engine is
// driving the queue(s), the keys — and therefore the total event order — are
// identical whether the machine runs on the serial engine's single queue or
// on the sharded engine's per-shard queues (see sim/sharded_simulator.hpp).
//
// The heap holds each key packed into one 128-bit integer, so ordering two
// events is a single wide compare, and it sifts 4-ary, so a pop touches
// half as many levels as a binary heap's.  A key that does not fit the
// packing throws instead of reordering silently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace spinn::sim {

/// Tie-break priority for events scheduled at the same instant.  Lower values
/// run first.  Mirrors the VIC priorities of Fig. 7 where useful.
enum class EventPriority : std::uint8_t {
  Interrupt = 0,   // timer/packet/DMA interrupt delivery
  Fabric = 1,      // packet hop / link handshake completion
  Default = 2,
  Background = 3,  // statistics, watchdogs
};

/// The work of one event: a move-only callable stored inline.  Every event
/// in the machine model is a small lambda (a `this` pointer plus a packet or
/// a DMA descriptor), so a fixed inline capacity makes scheduling and
/// running an event allocation-free.  A capture larger than kCapacity fails
/// to compile at its schedule site; there is no heap fallback.
class EventAction {
 public:
  /// Inline capture bytes: room for a `this` pointer, two more words and
  /// a 32-byte router::Packet, the shape of the machine model's
  /// packet-carrying events.
  static constexpr std::size_t kCapacity = 64;

  EventAction() noexcept = default;

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventAction> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  EventAction(F&& f) {  // implicit: schedule sites pass bare lambdas
    static_assert(sizeof(Fn) <= kCapacity,
                  "EventAction: the capture exceeds the inline capacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "EventAction: the capture is over-aligned");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "EventAction: the capture must be nothrow-movable");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  EventAction(EventAction&& other) noexcept { take(other); }
  EventAction& operator=(EventAction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventAction(const EventAction&) = delete;
  EventAction& operator=(const EventAction&) = delete;
  ~EventAction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Run the callable.  Must not be empty.
  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct into `dst`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr Ops kOps{
      [](void* self) { (*static_cast<Fn*>(self))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) noexcept { static_cast<Fn*>(self)->~Fn(); }};

  void take(EventAction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = std::exchange(other.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

  alignas(std::max_align_t) unsigned char storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// Actor whose state an event belongs to.  0 is the root actor (host-side
/// code, tests, the boot controller); chips are numbered from 1.
using ActorId = std::uint32_t;

inline constexpr ActorId kRootActor = 0;

/// Actors and per-actor sequence numbers the packed heap key can hold:
/// 17 bits of actor cover admission's 65,536-chip cap plus the root actor,
/// and 45 bits of sequence outlast any run admission accepts.
inline constexpr ActorId kActorLimit = ActorId{1} << 17;
inline constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 45;

/// Sentinel "no event" timestamp (earliest_root_when() when none pending).
inline constexpr TimeNs kTimeNever = std::numeric_limits<TimeNs>::max();

/// The full deterministic ordering key of one event.  Strict weak order:
/// (when, priority, actor, seq); (actor, seq) pairs are unique, so the order
/// is total.
struct EventKey {
  TimeNs when = 0;
  EventPriority priority = EventPriority::Default;
  ActorId actor = kRootActor;
  std::uint64_t seq = 0;

  friend constexpr bool operator<(const EventKey& a, const EventKey& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.actor != b.actor) return a.actor < b.actor;
    return a.seq < b.seq;
  }
  friend constexpr bool operator==(const EventKey&, const EventKey&) = default;
};

class EventQueue {
 public:
  EventQueue() = default;

  /// Current simulated time.  Only advances inside run() / step().
  TimeNs now() const { return now_; }

  /// Schedule `action` to run at absolute time `when` (must be >= now()).
  /// The event is keyed to — and will execute under — the currently
  /// executing actor (kRootActor when called outside event execution).
  void schedule_at(TimeNs when, EventAction&& action,
                   EventPriority priority = EventPriority::Default);

  /// Schedule `action` after a relative delay.
  void schedule_in(TimeNs delay, EventAction&& action,
                   EventPriority priority = EventPriority::Default);

  /// Schedule an event keyed to and executing under an explicit actor.
  /// Used at the non-event entry points into a component's event tree
  /// (starting a chip's timers, kicking off its self-test) so the tree is
  /// numbered by its owner rather than by whoever poked it.  The caller must
  /// have exclusive access to `actor`'s sequence counter — true for all
  /// setup/boot paths, which are single-threaded.
  void schedule_at_as(TimeNs when, ActorId actor, EventAction&& action,
                      EventPriority priority = EventPriority::Default);
  void schedule_in_as(TimeNs delay, ActorId actor, EventAction&& action,
                      EventPriority priority = EventPriority::Default);

  /// Schedule a cross-actor handoff: the event is *keyed* to the current
  /// actor (sender side, so the key can be computed where the send happens)
  /// but *executes* under `exec_actor` (receiver side, so everything it
  /// schedules belongs to the receiver).  This is the packet-delivery
  /// primitive the sharded engine routes through mailboxes.
  void schedule_handoff(TimeNs when, ActorId exec_actor, EventAction&& action,
                        EventPriority priority = EventPriority::Default);

  /// Reserve the next sequence number of the currently executing actor and
  /// return the full key for an event at (when, priority).  Used by the
  /// sharded engine to stamp a mailbox entry on the sender's queue before
  /// shipping it to the destination shard.
  EventKey make_handoff_key(TimeNs when, EventPriority priority);

  /// Reserve the key an event scheduled now by schedule_at_as(when, actor,
  /// ..., priority) would get — the same sequence draw — without inserting
  /// anything.  The owner inserts it through insert_foreign() if the event
  /// turns out to be needed (a core's handler completion, which matters
  /// only when work waits for the core).  The queue remembers the latest
  /// reserved instant: a drained step() advances the clock to it, as the
  /// reserved event would have had it run.
  EventKey reserve_key_as(TimeNs when, ActorId actor, EventPriority priority);

  /// Latest instant reserve_key_as() has handed out (0 if none since the
  /// last clear()).
  TimeNs latest_reserved() const { return latest_reserved_; }

  /// Insert an event carrying an externally assigned key (a drained mailbox
  /// entry).  `key.when` must be >= now().  Does not touch any counter.
  void insert_foreign(const EventKey& key, ActorId exec_actor,
                      EventAction&& action);

  /// Run the earliest pending event.  Returns false if the queue is empty,
  /// after advancing the clock to latest_reserved().
  bool step();

  /// Run until the queue drains or `until` is reached (events at exactly
  /// `until` still run).  Returns the number of events executed.
  std::uint64_t run_until(TimeNs until);

  /// Run until the queue drains.
  std::uint64_t run();

  /// Bounded-window execution for the sharded engine: run events with
  /// when < bound (inclusive = false) or when <= bound (inclusive = true),
  /// then advance now() to bound.  Returns the number of events executed.
  std::uint64_t run_window(TimeNs bound, bool inclusive);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  /// Key of the earliest pending event.  Only valid when !empty().
  EventKey peek_key() const { return unpack(heap_.front().key); }

  /// Earliest `when` among pending root-exec events, or kTimeNever.  The
  /// sharded engine bounds its parallel windows below this instant: a
  /// far-future root event (an abandoned boot's probe timer) then no longer
  /// forces the sequential merge for a whole run_until span.
  TimeNs earliest_root_when() const {
    return root_whens_.empty() ? kTimeNever : root_whens_.front();
  }

  /// True while an event's action is being executed by this queue.
  bool executing() const { return executing_; }
  /// Key of the event currently being executed (valid while executing()).
  const EventKey& current_key() const { return current_key_; }

  /// Advance the clock without executing anything (never moves backwards).
  /// The sharded engine's sequential merge uses this to keep every shard's
  /// clock at the global time before each step, so code invoked across
  /// actor boundaries (the boot protocol) sees the same now() it would see
  /// on the serial engine's single clock.
  void advance_to(TimeNs t) {
    if (now_ < t) now_ = t;
  }

  /// Drop every pending event and forget the latest reserved instant (used
  /// when tearing down a scenario).  Sequence counters are retained so keys
  /// never repeat within a run.
  void clear();

  /// Return the queue to its freshly-constructed state: pending events
  /// dropped, clock back to 0, sequence counters and statistics zeroed.
  /// Unlike clear(), a reset queue is indistinguishable from a new one —
  /// the basis of engine reuse across server sessions (src/server/).
  void reset();

 private:
  /// A key as the heap compares it: when (64) | priority (2) | actor (17) |
  /// seq (45), most significant first, so integer order is key order.
  using PackedKey = unsigned __int128;
  /// Throws std::logic_error for a key the packing cannot hold.
  static PackedKey pack(const EventKey& key);
  static EventKey unpack(PackedKey packed);

  /// One pending event as the heap orders it: the packed key plus where its
  /// action lives.  Ordered by key alone; the slot never takes part.
  struct Record {
    PackedKey key;
    ActorId exec_actor;
    std::uint32_t slot;
  };

  std::uint64_t next_seq(ActorId actor);
  void push(TimeNs when, EventPriority priority, ActorId key_actor,
            ActorId exec_actor, EventAction&& action);
  /// Store the action in a slot and add its record to the heap(s).
  void insert(const EventKey& key, ActorId exec_actor, EventAction&& action);
  /// 4-ary min-heap operations on heap_.
  void heap_push(const Record& rec);
  Record heap_pop();

  TimeNs now_ = 0;
  std::uint64_t executed_ = 0;
  /// Min-heap of the `when`s of pending root-exec events.  Root events
  /// (boot controller, host-side code) may reach across shard boundaries,
  /// so the sharded engine runs them only on its sequential merge and
  /// bounds parallel windows below the earliest one.  Events leave the
  /// queue in key order, so an executing root event's `when` is always this
  /// heap's top.
  std::vector<TimeNs> root_whens_;
  bool executing_ = false;
  ActorId current_exec_actor_ = kRootActor;
  EventKey current_key_{};
  TimeNs latest_reserved_ = 0;
  /// Per-actor sequence counters, indexed by ActorId and grown on demand.
  /// An actor's counter lives in its home queue: only code executing under
  /// that actor (or single-threaded setup code) may draw from it.
  std::vector<std::uint64_t> seq_;
  /// 4-ary min-heap of pending events by packed key: the children of
  /// heap_[i] are heap_[4i+1 .. 4i+4].
  std::vector<Record> heap_;
  /// Action store: a record's slot indexes it.  Slots are recycled through
  /// free_slots_, so a queue at a steady depth stops allocating.
  std::vector<EventAction> actions_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace spinn::sim
