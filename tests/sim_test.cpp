// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace spinn::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTimeOrderedByPriorityThenSeq) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(5, [&] { order.push_back(1); }, EventPriority::Background);
  q.schedule_at(5, [&] { order.push_back(2); }, EventPriority::Interrupt);
  q.schedule_at(5, [&] { order.push_back(3); }, EventPriority::Interrupt);
  q.schedule_at(5, [&] { order.push_back(4); }, EventPriority::Fabric);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 1}));
}

TEST(EventQueue, SchedulingIntoThePastThrows) {
  EventQueue q;
  q.schedule_at(10, [] {});
  q.step();
  EXPECT_THROW(q.schedule_at(5, [] {}), std::logic_error);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int count = 0;
  for (TimeNs t = 1; t <= 10; ++t) {
    q.schedule_at(t * 10, [&] { ++count; });
  }
  const std::uint64_t executed = q.run_until(50);
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 50);  // time advances to the boundary even if no event
  EXPECT_EQ(q.pending(), 5u);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_in(10, recurse);
  };
  q.schedule_at(0, recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), 40);
}

TEST(EventQueue, ClearDropsPending) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1, [&] { ++count; });
  q.clear();
  q.run();
  EXPECT_EQ(count, 0);
}

/// Owned state of a move-only action: counts its own destruction.
struct Tracked {
  explicit Tracked(int* destroyed) : destroyed(destroyed) {}
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { ++*destroyed; }
  int* destroyed;
};

TEST(EventQueue, MoveOnlyActionRunsExactlyOnce) {
  EventQueue q;
  int runs = 0;
  int destroyed = 0;
  q.schedule_at(5, [&runs, owned = std::make_unique<Tracked>(&destroyed)] {
    ASSERT_NE(owned, nullptr);
    ++runs;
  });
  EXPECT_EQ(destroyed, 0);
  q.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 1);  // released once it ran, not parked in its slot
  q.schedule_at(6, [] {});  // reuses the freed slot
  q.run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(EventQueue, ClearAndResetDestroyActionsWithoutRunning) {
  EventQueue q;
  int runs = 0;
  int destroyed = 0;
  auto schedule_owned = [&](TimeNs when) {
    q.schedule_at(when,
                  [&runs, owned = std::make_unique<Tracked>(&destroyed)] {
                    ++runs;
                  });
  };
  for (TimeNs t = 10; t < 13; ++t) schedule_owned(t);
  q.clear();
  EXPECT_EQ(destroyed, 3);
  schedule_owned(20);
  q.reset();
  EXPECT_EQ(destroyed, 4);
  q.run();
  EXPECT_EQ(runs, 0);
}

TEST(EventQueue, ActionMayGrowTheQueueWhileItRuns) {
  EventQueue q;
  int children = 0;
  // The running action schedules enough events to reallocate the action
  // store many times over, then reads its own captures: an action run in
  // place from that store would read freed memory (the ASan preset fails).
  q.schedule_at(1, [&q, &children, owned = std::make_unique<int>(42)] {
    for (int i = 0; i < 1000; ++i) {
      q.schedule_in(1 + i % 7, [&children] { ++children; });
    }
    EXPECT_EQ(*owned, 42);
  });
  q.run();
  EXPECT_EQ(children, 1000);
  EXPECT_EQ(q.executed(), 1001u);
}

TEST(EventQueue, ReservedKeyIsTheKeySchedulingWouldDraw) {
  EventQueue q;
  q.schedule_at_as(5, 3, [] {});  // actor 3 draws seq 0
  const EventKey reserved = q.reserve_key_as(20, 3, EventPriority::Interrupt);
  EXPECT_EQ(reserved, (EventKey{20, EventPriority::Interrupt, 3, 1}));
  EXPECT_EQ(q.pending(), 1u) << "a reservation inserts nothing";
  std::vector<int> order;
  q.schedule_at_as(20, 3, [&] { order.push_back(2); },
                   EventPriority::Interrupt);  // seq 2
  q.insert_foreign(reserved, 3, [&] { order.push_back(1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, DrainedStepAdvancesToTheLatestReservation) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.reserve_key_as(500, 1, EventPriority::Interrupt);
  q.reserve_key_as(300, 1, EventPriority::Interrupt);
  EXPECT_EQ(q.latest_reserved(), 500);
  EXPECT_EQ(q.run_until(200), 1u);
  EXPECT_EQ(q.now(), 200) << "a bounded run stops at its bound";
  EXPECT_EQ(q.run(), 0u);
  EXPECT_EQ(q.now(), 500) << "the reserved events would have run";
  q.reserve_key_as(900, 1, EventPriority::Interrupt);
  q.clear();
  EXPECT_FALSE(q.step());
  EXPECT_EQ(q.now(), 500) << "clear() forgets the reservation";
  q.reserve_key_as(900, 1, EventPriority::Interrupt);
  q.reset();
  EXPECT_FALSE(q.step());
  EXPECT_EQ(q.now(), 0);
}

TEST(EventQueue, PackedKeyKeepsEveryFieldAtItsLimit) {
  EventQueue q;
  const EventKey top{std::numeric_limits<TimeNs>::max(),
                     EventPriority::Background, kActorLimit - 1,
                     kSeqLimit - 1};
  const EventKey below{std::numeric_limits<TimeNs>::max(),
                       EventPriority::Background, kActorLimit - 1,
                       kSeqLimit - 2};
  std::vector<int> order;
  q.insert_foreign(top, 1, [&] { order.push_back(2); });
  q.insert_foreign(below, 1, [&] { order.push_back(1); });
  EXPECT_EQ(q.peek_key(), below);
  ASSERT_TRUE(q.step());
  EXPECT_EQ(q.current_key(), below);
  EXPECT_EQ(q.peek_key(), top);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, ConvenienceWrappers) {
  Simulator sim(1);
  int hits = 0;
  sim.at(100, [&] { ++hits; });
  sim.after(50, [&] { ++hits; });
  sim.run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RngIsSeeded) {
  Simulator a(5), b(5), c(6);
  EXPECT_EQ(a.rng().next(), b.rng().next());
  Simulator d(5);
  EXPECT_NE(d.rng().next(), c.rng().next());
}

/// Determinism property: identical seeds yield identical event interleaving.
class DeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismTest, SameSeedSameTrace) {
  auto trace = [&](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<std::uint64_t> log;
    for (int i = 0; i < 50; ++i) {
      const TimeNs t = static_cast<TimeNs>(sim.rng().uniform_int(1000));
      sim.at(t, [&log, t] { log.push_back(static_cast<std::uint64_t>(t)); });
    }
    sim.run();
    return log;
  };
  EXPECT_EQ(trace(GetParam()), trace(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         ::testing::Values(1u, 42u, 1234567u));

}  // namespace
}  // namespace spinn::sim
