#include "sim/event_queue.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

namespace spinn::sim {

std::uint64_t EventQueue::next_seq(ActorId actor) {
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
  heap_.push_back(Record{key, exec_actor, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
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

void EventQueue::insert_foreign(const EventKey& key, ActorId exec_actor,
                                EventAction&& action) {
  if (key.when < now_) {
    throw std::logic_error("EventQueue: foreign event in the past");
  }
  insert(key, exec_actor, std::move(action));
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Record rec = heap_.back();
  heap_.pop_back();
  if (rec.exec_actor == kRootActor) {
    std::pop_heap(root_whens_.begin(), root_whens_.end(), std::greater<>{});
    root_whens_.pop_back();
  }
  // Run from a local: a nested schedule_* may grow (reallocate) actions_
  // or hand this slot to a new event.
  EventAction action = std::move(actions_[rec.slot]);
  free_slots_.push_back(rec.slot);
  now_ = rec.key.when;
  ++executed_;
  executing_ = true;
  current_key_ = rec.key;
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
  while (!heap_.empty() && (inclusive ? heap_.front().key.when <= bound
                                      : heap_.front().key.when < bound)) {
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
