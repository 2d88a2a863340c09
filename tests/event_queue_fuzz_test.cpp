// Property/fuzz tests for the event-queue kernel and the sharded engine's
// cross-shard mailbox path.
//
// Part 1 drives one EventQueue with random interleavings of schedule_at /
// schedule_in / schedule_at_as / schedule_handoff / insert_foreign / clear
// and checks the kernel's documented invariants: execution follows the
// (when, priority, actor, seq) total order, nothing ever executes before the
// clock it was scheduled against, the clock is monotone, and
// earliest_root_when() matches a reference multiset after every operation.
// A tie-heavy variant draws most instants from a coarse grid, so that
// (priority, actor, seq) decides most comparisons of the packed heap key —
// the regime of a machine model, where many events share an instant.
//
// Part 2 runs a randomised multi-actor workload — self-scheduling event
// trees with random cross-actor handoffs — on a standalone serial Simulator
// and on ShardedSimulator instances at several shard/thread counts, and
// requires every actor's observation log to be identical: the mailbox merge
// must reproduce the serial order exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"

namespace spinn::sim {
namespace {

EventPriority random_priority(Rng& rng) {
  return static_cast<EventPriority>(rng.uniform_int(4));
}

// ---- Part 1: single-queue invariants ---------------------------------------

/// Spacing of the few instants the tie-heavy variant draws from.
constexpr TimeNs kTieGrid = 25;

void fuzz_queue(std::uint64_t seed, bool tie_heavy) {
  Rng rng(seed);
  EventQueue q;
  struct Observed {
    std::vector<EventKey> keys;
    std::vector<TimeNs> times;
    // Number of events already executed when each executed event was
    // *scheduled* — lets the order check distinguish "queue misordered two
    // pending events" (a bug) from "a higher-priority event was scheduled
    // at the current instant after its peer already ran" (legal).
    std::vector<std::size_t> sched_stamp;
    // Reference model of earliest_root_when(): the `when`s of pending
    // root-exec events.
    std::multiset<TimeNs> root_whens;
  } seen;
  TimeNs last_now = 0;
  std::uint64_t scheduled = 0;

  auto make_action = [&](TimeNs scheduled_at_now, TimeNs when,
                         ActorId exec_actor) {
    const std::size_t stamp = seen.keys.size();
    const bool root = exec_actor == kRootActor;
    if (root) seen.root_whens.insert(when);
    return [&q, &seen, scheduled_at_now, when, stamp, root] {
      ASSERT_GE(q.now(), scheduled_at_now)
          << "executed before the clock it was scheduled against";
      ASSERT_EQ(q.now(), when) << "executed at the wrong instant";
      ASSERT_TRUE(q.executing());
      seen.keys.push_back(q.current_key());
      seen.times.push_back(q.now());
      seen.sched_stamp.push_back(stamp);
      if (root) seen.root_whens.erase(seen.root_whens.find(when));
    };
  };
  auto check_root_when = [&] {
    const TimeNs want =
        seen.root_whens.empty() ? kTimeNever : *seen.root_whens.begin();
    ASSERT_EQ(q.earliest_root_when(), want);
  };

  for (int round = 0; round < 200; ++round) {
    // A burst of random scheduling ops.  Outside event execution
    // schedule_at / schedule_in run under the root actor; the other ops
    // pick an actor, and actor 0 is the root.
    const int ops = 1 + static_cast<int>(rng.uniform_int(8));
    for (int i = 0; i < ops; ++i) {
      const TimeNs now = q.now();
      TimeNs delay = static_cast<TimeNs>(rng.uniform_int(50));
      if (tie_heavy && rng.chance(0.9)) {
        // One of the next three grid instants at or after now.
        const TimeNs first = (now + kTieGrid - 1) / kTieGrid * kTieGrid;
        delay = first + kTieGrid * static_cast<TimeNs>(rng.uniform_int(3)) -
                now;
      }
      const EventPriority prio = random_priority(rng);
      const auto actor = static_cast<ActorId>(rng.uniform_int(5));
      switch (rng.uniform_int(6)) {
        case 0:
          q.schedule_at(now + delay, make_action(now, now + delay, kRootActor),
                        prio);
          ++scheduled;
          break;
        case 1:
          q.schedule_in(delay, make_action(now, now + delay, kRootActor),
                        prio);
          ++scheduled;
          break;
        case 2:
          q.schedule_at_as(now + delay, actor,
                           make_action(now, now + delay, actor), prio);
          ++scheduled;
          break;
        case 3:
          q.schedule_handoff(now + delay, actor,
                             make_action(now, now + delay, actor), prio);
          ++scheduled;
          break;
        case 4:
          // A drained mailbox entry: key stamped first, inserted later.
          q.insert_foreign(q.make_handoff_key(now + delay, prio), actor,
                           make_action(now, now + delay, actor));
          ++scheduled;
          break;
        case 5:
          if (rng.chance(0.05)) {  // rare teardown
            q.clear();
            seen.root_whens.clear();
          }
          break;
      }
      check_root_when();
    }
    // Execute a random number of pending events.
    const int steps = static_cast<int>(rng.uniform_int(6));
    for (int i = 0; i < steps && q.step(); ++i) {
      check_root_when();
    }
    ASSERT_GE(q.now(), last_now) << "clock went backwards";
    last_now = q.now();
  }
  q.run();
  check_root_when();

  ASSERT_FALSE(seen.keys.empty());
  for (std::size_t i = 1; i < seen.keys.size(); ++i) {
    EXPECT_LE(seen.times[i - 1], seen.times[i])
        << "simulated time went backwards at event " << i;
  }
  // Two events that were ever pending together must execute in key order:
  // j executing after i with key_j < key_i is only legal if j was scheduled
  // after i had already run.
  for (std::size_t i = 0; i < seen.keys.size(); ++i) {
    for (std::size_t j = i + 1; j < seen.keys.size(); ++j) {
      if (seen.keys[j] < seen.keys[i]) {
        EXPECT_GT(seen.sched_stamp[j], i)
            << "events " << i << " and " << j << " were pending together "
            << "but executed against the (when, priority, actor, seq) order";
      }
    }
  }
}

class QueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueFuzz, TotalOrderAndClockInvariantsHold) {
  fuzz_queue(GetParam(), /*tie_heavy=*/false);
}

TEST_P(QueueFuzz, TieHeavyTotalOrderAndClockInvariantsHold) {
  fuzz_queue(GetParam(), /*tie_heavy=*/true);
}

TEST(QueueFuzz, KeysBeyondThePackedKeyThrow) {
  EventQueue q;
  EXPECT_THROW(q.schedule_at_as(10, kActorLimit, [] {}), std::logic_error);
  EXPECT_THROW(q.insert_foreign(
                   EventKey{10, EventPriority::Default, 1, kSeqLimit}, 1,
                   [] {}),
               std::logic_error);
  EXPECT_TRUE(q.empty()) << "a key that does not fit is never inserted";
  q.schedule_at_as(10, kActorLimit - 1, [] {});
  q.insert_foreign(EventKey{10, EventPriority::Default, 1, kSeqLimit - 1}, 1,
                   [] {});
  EXPECT_EQ(q.run(), 2u);
}

TEST(QueueFuzz, SchedulingIntoThePastStillThrows) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(50, [] {}), std::logic_error);
  EXPECT_THROW(q.insert_foreign(EventKey{50, EventPriority::Default, 1, 0},
                                1, [] {}),
               std::logic_error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueFuzz,
                         ::testing::Values(1u, 7u, 42u, 1234567u));

// ---- Part 2: mailbox-merge equivalence -------------------------------------

constexpr TimeNs kLookahead = 40;
constexpr int kNumActors = 6;
constexpr std::size_t kEventBudget = 400;  // per actor

/// One deterministic stochastic actor: every event logs (now, tag) and may
/// spawn local events and cross-actor handoffs.  All decisions come from a
/// per-actor RNG, so the workload depends only on each actor's execution
/// order — which is exactly what the engines must agree on.
struct FuzzActor {
  ActorId id = 0;
  Simulator* ctx = nullptr;
  Rng rng{0};
  std::vector<std::pair<TimeNs, std::uint64_t>> log;
  std::vector<FuzzActor>* all = nullptr;

  void event(std::uint64_t tag) {
    log.emplace_back(ctx->now(), tag);
    if (log.size() >= kEventBudget) return;  // bounded workload
    // Slightly supercritical branching: the event budget, not extinction,
    // bounds the run, so every seed produces a meaningful workload.
    const int spawn = 1 + static_cast<int>(rng.uniform_int(2));
    for (int i = 0; i < spawn; ++i) {
      const std::uint64_t child_tag = rng.next();
      const EventPriority prio = random_priority(rng);
      if (rng.chance(0.35)) {
        // Cross-actor handoff (may cross shards): at least one lookahead
        // of delay, like a real link flight.
        const auto dst =
            static_cast<ActorId>(1 + rng.uniform_int(kNumActors));
        const TimeNs delay =
            kLookahead + static_cast<TimeNs>(rng.uniform_int(300));
        FuzzActor* target = &(*all)[dst - 1];
        ctx->handoff(delay, dst,
                     [target, child_tag] { target->event(child_tag); }, prio);
      } else {
        const TimeNs delay = static_cast<TimeNs>(rng.uniform_int(120));
        ctx->after(delay, [this, child_tag] { event(child_tag); }, prio);
      }
    }
  }
};

std::vector<std::vector<std::pair<TimeNs, std::uint64_t>>> run_workload(
    std::uint64_t seed, ISimulationEngine* engine, Simulator* serial) {
  std::vector<FuzzActor> actors(kNumActors);
  if (engine != nullptr) {
    engine->map_actors(kNumActors + 1);
    engine->constrain_lookahead(kLookahead);
  }
  for (int a = 0; a < kNumActors; ++a) {
    actors[a].id = static_cast<ActorId>(a + 1);
    actors[a].ctx =
        engine != nullptr ? &engine->context_of(actors[a].id) : serial;
    actors[a].rng = Rng::fork(seed, actors[a].id);
    actors[a].all = &actors;
    // Top-level kick, keyed to the actor: one seed event each.
    FuzzActor* self = &actors[a];
    actors[a].ctx->at_as(10 + 7 * a, actors[a].id,
                         [self] { self->event(0); });
  }
  // Drive in a few segments (exercises window-boundary bookkeeping), then
  // drain.
  for (TimeNs t : {1000, 5000, 20000}) {
    if (engine != nullptr) {
      engine->run_until(t);
    } else {
      serial->run_until(t);
    }
  }
  if (engine != nullptr) {
    while (engine->step()) {
    }
  } else {
    serial->run();
  }
  std::vector<std::vector<std::pair<TimeNs, std::uint64_t>>> logs;
  for (auto& a : actors) logs.push_back(std::move(a.log));
  return logs;
}

class MailboxFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MailboxFuzz, ShardedMergeReproducesSerialOrder) {
  const std::uint64_t seed = GetParam();

  Simulator serial(seed);
  const auto reference = run_workload(seed, nullptr, &serial);
  std::size_t total = 0;
  for (const auto& log : reference) total += log.size();
  ASSERT_GT(total, 100u) << "workload too small to be meaningful";

  struct Config {
    std::uint32_t shards, threads;
  };
  for (const Config c : {Config{1, 1}, Config{2, 2}, Config{3, 1},
                         Config{8, 0}}) {
    SCOPED_TRACE("shards=" + std::to_string(c.shards) +
                 " threads=" + std::to_string(c.threads));
    ShardedSimulator engine(seed, c.shards, c.threads);
    const auto sharded = run_workload(seed, &engine, nullptr);
    EXPECT_EQ(reference, sharded);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MailboxFuzz,
                         ::testing::Values(3u, 99u, 4242u, 20260726u));

}  // namespace
}  // namespace spinn::sim
