#include "sim/event_queue.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

namespace spinn::sim {

namespace {

constexpr unsigned kSeqBits = 45;
constexpr unsigned kActorBits = 17;
static_assert(kActorLimit == ActorId{1} << kActorBits);
static_assert(kSeqLimit == std::uint64_t{1} << kSeqBits);

/// Children per heap node.  Four children of 32 bytes fill two cache lines,
/// and the heap is half as deep as a binary one.  heap_pop() picks the
/// least of four by hand.
constexpr std::size_t kArity = 4;

}  // namespace

EventQueue::PackedKey EventQueue::pack(const EventKey& key) {
  const auto priority = static_cast<std::uint64_t>(key.priority);
  if (key.actor >= kActorLimit || key.seq >= kSeqLimit || priority > 3 ||
      key.when < 0) {
    throw std::logic_error("EventQueue: event key does not fit the packed key");
  }
  const std::uint64_t low = (priority << (kActorBits + kSeqBits)) |
                            (std::uint64_t{key.actor} << kSeqBits) | key.seq;
  return (PackedKey{static_cast<std::uint64_t>(key.when)} << 64) | low;
}

EventKey EventQueue::unpack(PackedKey packed) {
  const auto low = static_cast<std::uint64_t>(packed);
  return EventKey{static_cast<TimeNs>(packed >> 64),
                  static_cast<EventPriority>(low >> (kActorBits + kSeqBits)),
                  static_cast<ActorId>((low >> kSeqBits) & (kActorLimit - 1)),
                  low & (kSeqLimit - 1)};
}

std::uint64_t EventQueue::next_seq(ActorId actor) {
  if (actor >= kActorLimit) {
    throw std::logic_error("EventQueue: actor does not fit the packed key");
  }
  if (actor >= seq_.size()) seq_.resize(actor + 1, 0);
  return seq_[actor]++;
}

void EventQueue::push(TimeNs when, EventPriority priority, ActorId key_actor,
                      ActorId exec_actor, EventAction&& action) {
  if (when < now_) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
  insert(EventKey{when, priority, key_actor, next_seq(key_actor)}, exec_actor,
         std::move(action));
}

void EventQueue::insert(const EventKey& key, ActorId exec_actor,
                        EventAction&& action) {
  static_assert(sizeof(Record) == 32, "heap records stay compact");
  const PackedKey packed = pack(key);
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  if (exec_actor == kRootActor) {
    root_whens_.push_back(key.when);
    std::push_heap(root_whens_.begin(), root_whens_.end(),
                   std::greater<>{});
  }
  heap_push(Record{packed, exec_actor, slot});
}

void EventQueue::heap_push(const Record& rec) {
  // Sift the hole up from the new leaf; keys are unique, so strict
  // comparisons order them totally.
  std::size_t i = heap_.size();
  heap_.push_back(rec);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(rec.key < heap_[parent].key)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = rec;
}

EventQueue::Record EventQueue::heap_pop() {
  const Record top = heap_.front();
  const Record last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  Record* const h = heap_.data();
  // Floyd's pop: walk the hole from the root to a leaf, moving the least
  // child up at each level, then sift the old last record up from there.
  // The last record mostly belongs near the bottom, so the walk down needs
  // no comparison with it and the sift up is short.  Keys arrive in no
  // order a predictor can learn, so the least of four is picked without
  // branches.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first + kArity > n) break;
    const std::size_t a = first + (h[first + 1].key < h[first].key);
    const std::size_t b = first + 2 + (h[first + 3].key < h[first + 2].key);
    const std::size_t least = h[b].key < h[a].key ? b : a;
    h[i] = h[least];
    i = least;
  }
  const std::size_t first = kArity * i + 1;
  if (first < n) {  // the one node with fewer than four children
    std::size_t least = first;
    for (std::size_t c = first + 1; c < n; ++c) {
      if (h[c].key < h[least].key) least = c;
    }
    h[i] = h[least];
    i = least;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!(last.key < h[parent].key)) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = last;
  return top;
}

void EventQueue::schedule_at(TimeNs when, EventAction&& action,
                             EventPriority priority) {
  push(when, priority, current_exec_actor_, current_exec_actor_,
       std::move(action));
}

void EventQueue::schedule_in(TimeNs delay, EventAction&& action,
                             EventPriority priority) {
  schedule_at(now_ + delay, std::move(action), priority);
}

void EventQueue::schedule_at_as(TimeNs when, ActorId actor,
                                EventAction&& action, EventPriority priority) {
  push(when, priority, actor, actor, std::move(action));
}

void EventQueue::schedule_in_as(TimeNs delay, ActorId actor,
                                EventAction&& action, EventPriority priority) {
  schedule_at_as(now_ + delay, actor, std::move(action), priority);
}

void EventQueue::schedule_handoff(TimeNs when, ActorId exec_actor,
                                  EventAction&& action,
                                  EventPriority priority) {
  push(when, priority, current_exec_actor_, exec_actor, std::move(action));
}

EventKey EventQueue::make_handoff_key(TimeNs when, EventPriority priority) {
  return EventKey{when, priority, current_exec_actor_,
                  next_seq(current_exec_actor_)};
}

EventKey EventQueue::reserve_key_as(TimeNs when, ActorId actor,
                                    EventPriority priority) {
  if (when < now_) {
    throw std::logic_error("EventQueue: reserving a key in the past");
  }
  latest_reserved_ = std::max(latest_reserved_, when);
  return EventKey{when, priority, actor, next_seq(actor)};
}

void EventQueue::insert_foreign(const EventKey& key, ActorId exec_actor,
                                EventAction&& action) {
  if (key.when < now_) {
    throw std::logic_error("EventQueue: foreign event in the past");
  }
  insert(key, exec_actor, std::move(action));
}

bool EventQueue::step() {
  if (heap_.empty()) {
    // The reserved events that were never inserted would have run by now.
    advance_to(latest_reserved_);
    return false;
  }
  const Record rec = heap_pop();
  const EventKey key = unpack(rec.key);
  if (rec.exec_actor == kRootActor) {
    std::pop_heap(root_whens_.begin(), root_whens_.end(), std::greater<>{});
    root_whens_.pop_back();
  }
  // Run from a local: a nested schedule_* may grow (reallocate) actions_
  // or hand this slot to a new event.
  EventAction action = std::move(actions_[rec.slot]);
  free_slots_.push_back(rec.slot);
  now_ = key.when;
  ++executed_;
  executing_ = true;
  current_key_ = key;
  current_exec_actor_ = rec.exec_actor;
  // Reset the execution context even if the action throws (the engine's
  // fail-fast checks do), so later scheduling isn't silently mis-keyed to a
  // stale actor.
  struct ResetContext {
    EventQueue* q;
    ~ResetContext() {
      q->executing_ = false;
      q->current_exec_actor_ = kRootActor;
    }
  } reset{this};
  action();
  return true;
}

std::uint64_t EventQueue::run_until(TimeNs until) {
  return run_window(until, /*inclusive=*/true);
}

std::uint64_t EventQueue::run() {
  std::uint64_t count = 0;
  while (step()) ++count;
  return count;
}

std::uint64_t EventQueue::run_window(TimeNs bound, bool inclusive) {
  std::uint64_t count = 0;
  while (!heap_.empty()) {
    // The packed key's top 64 bits are the event's `when`.
    const auto when = static_cast<TimeNs>(heap_.front().key >> 64);
    if (inclusive ? when > bound : when >= bound) break;
    step();
    ++count;
  }
  if (now_ < bound) now_ = bound;
  return count;
}

void EventQueue::clear() {
  heap_.clear();
  root_whens_.clear();
  actions_.clear();
  free_slots_.clear();
  latest_reserved_ = 0;
}

void EventQueue::reset() {
  clear();
  seq_.clear();
  now_ = 0;
  executed_ = 0;
  executing_ = false;
  current_exec_actor_ = kRootActor;
  current_key_ = EventKey{};
}

}  // namespace spinn::sim
