// The session-server suite.
//
// The contract (ISSUE 3): a session is an *execution context*, not a
// different model.  N concurrent sessions multiplexed over mixed
// serial/sharded engines must each produce a spike stream bit-identical to
// the same spec run standalone; engines reused from the pool must be
// indistinguishable from fresh ones; eviction and double teardown must be
// clean (the whole suite runs under ASan and TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "server/server.hpp"
#include "session_test_util.hpp"

namespace spinn::server {
namespace {

using test::Events;
using test::append;
using test::same_events;
using test::spec_with;

// ---- lifecycle basics ------------------------------------------------------

TEST(SessionServer, OpenRunDrainClose) {
  SessionServer server;
  const SessionId id = server.open(SessionSpec{});
  ASSERT_NE(id, kInvalidSession);
  EXPECT_TRUE(server.run(id, 20 * kMillisecond));
  EXPECT_TRUE(server.wait(id));

  const SessionStatus st = server.status(id);
  EXPECT_EQ(st.state, SessionState::Ready);
  EXPECT_TRUE(st.load_ok);
  EXPECT_EQ(st.bio_now, 20 * kMillisecond);
  EXPECT_GT(st.spikes_recorded, 0u);

  const Events events = server.drain(id);
  EXPECT_EQ(events.size(), st.spikes_recorded);
  EXPECT_TRUE(server.close(id));
}

TEST(SessionServer, RejectsUnknownAppAndBadDims) {
  SessionServer server;
  std::string error;
  SessionSpec bad_app;
  bad_app.app = "nonexistent";
  EXPECT_EQ(server.open(bad_app, &error), kInvalidSession);
  EXPECT_NE(error.find("unknown app"), std::string::npos);

  SessionSpec bad_dims;
  bad_dims.width = 0;
  EXPECT_EQ(server.open(bad_dims, &error), kInvalidSession);
  EXPECT_EQ(server.stats().rejected, 2u);
}

// An unknown app fails loudly outside admission too: an embedded caller's
// mistyped app must not simulate another net.
TEST(SessionServer, UnknownAppThrowsOutsideAdmission) {
  SessionSpec spec;
  spec.app = "nonexistent";
  EXPECT_THROW(run_standalone(spec, kMillisecond), std::invalid_argument);
  EXPECT_THROW(build_network(spec), std::invalid_argument);
  EXPECT_THROW(estimated_synapses(spec), std::invalid_argument);
}

TEST(SessionServer, UnknownIdOperationsAreClean) {
  SessionServer server;
  EXPECT_FALSE(server.run(999, kMillisecond));
  EXPECT_FALSE(server.wait(999));
  EXPECT_FALSE(server.close(999));
  EXPECT_TRUE(server.drain(999).empty());
  EXPECT_EQ(server.status(999).id, kInvalidSession);
}

TEST(SessionServer, DoubleTeardownIsClean) {
  SessionServer server;
  const SessionId id = server.open(spec_with("chain", 3, sim::EngineKind::Serial));
  ASSERT_NE(id, kInvalidSession);
  EXPECT_TRUE(server.run(id, 10 * kMillisecond));
  EXPECT_TRUE(server.wait(id));
  EXPECT_TRUE(server.close(id));
  EXPECT_FALSE(server.close(id));  // second teardown: clean no-op
  EXPECT_TRUE(server.drain(id).empty());
  const SessionStatus st = server.status(id);  // tombstone survives close
  EXPECT_EQ(st.id, id);
  EXPECT_EQ(st.state, SessionState::Closed);
  EXPECT_FALSE(st.evicted);
  // Run requests after teardown are refused, not crashed.
  EXPECT_FALSE(server.run(id, kMillisecond));
}

// ---- the determinism contract ---------------------------------------------

// The acceptance bar: >= 8 concurrent sessions over mixed serial/sharded
// engines, every per-session spike stream bit-identical to the same spec
// run standalone.
TEST(SessionServer, EightConcurrentMixedSessionsBitIdenticalToStandalone) {
  constexpr TimeNs kRun = 30 * kMillisecond;
  std::vector<SessionSpec> specs = {
      spec_with("noise", 1, sim::EngineKind::Serial),
      spec_with("noise", 1, sim::EngineKind::Sharded, 4, 2),
      spec_with("noise", 42, sim::EngineKind::Sharded, 2, 2),
      spec_with("chain", 7, sim::EngineKind::Serial),
      spec_with("chain", 7, sim::EngineKind::Sharded, 8, 2),
      spec_with("stdp", 9, sim::EngineKind::Serial),
      spec_with("stdp", 9, sim::EngineKind::Sharded, 4, 2),
      spec_with("noise", 20260726, sim::EngineKind::Serial),
  };
  specs[7].scatter = true;
  specs[2].boot = true;

  ServerConfig cfg;
  cfg.workers = 4;
  cfg.max_sessions = specs.size();
  SessionServer server(cfg);

  std::vector<SessionId> ids;
  for (const auto& spec : specs) {
    std::string error;
    const SessionId id = server.open(spec, &error);
    ASSERT_NE(id, kInvalidSession) << error;
    ASSERT_TRUE(server.run(id, kRun));
    ids.push_back(id);
  }
  // All 8 advance concurrently; drain incrementally while they run so the
  // comparison also covers the mid-run streaming path.
  std::vector<Events> streams(ids.size());
  bool any_running = true;
  while (any_running) {
    any_running = false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      append(streams[i], server.drain(ids[i]));
      if (server.status(ids[i]).bio_now < kRun) any_running = true;
    }
    // Let the workers breathe between polls (single-core hosts).
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(server.wait(ids[i]));
    append(streams[i], server.drain(ids[i]));
  }

  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i) + " app=" + specs[i].app);
    const Events reference = run_standalone(specs[i], kRun);
    ASSERT_FALSE(reference.empty());
    EXPECT_TRUE(same_events(streams[i], reference))
        << "stream size " << streams[i].size() << " vs reference "
        << reference.size();
    EXPECT_TRUE(server.close(ids[i]));
  }
}

// An engine taken from the pool after another session's run must behave
// bit-identically to a fresh one.
TEST(SessionServer, ReusedEnginesAreBitIdentical) {
  constexpr TimeNs kRun = 25 * kMillisecond;
  const SessionSpec sharded = spec_with("noise", 11, sim::EngineKind::Sharded,
                                        4, 2);
  const SessionSpec serial = spec_with("stdp", 5, sim::EngineKind::Serial);

  ServerConfig cfg;
  cfg.workers = 1;
  SessionServer server(cfg);

  // Warm the pool with both engine shapes — and with different specs than
  // the ones we verify, so reuse crosses scenario boundaries.
  for (const auto& warm : {spec_with("chain", 77, sim::EngineKind::Sharded, 4, 2),
                           spec_with("chain", 78, sim::EngineKind::Serial)}) {
    const SessionId id = server.open(warm);
    ASSERT_NE(id, kInvalidSession);
    ASSERT_TRUE(server.run(id, 5 * kMillisecond));
    ASSERT_TRUE(server.wait(id));
    ASSERT_TRUE(server.close(id));
  }
  ASSERT_EQ(server.stats().engines.idle, 2u);

  for (const auto& spec : {sharded, serial}) {
    const SessionId id = server.open(spec);
    ASSERT_NE(id, kInvalidSession);
    ASSERT_TRUE(server.run(id, kRun));
    ASSERT_TRUE(server.wait(id));
    const Events stream = server.drain(id);
    const Events reference = run_standalone(spec, kRun);
    ASSERT_FALSE(reference.empty());
    EXPECT_TRUE(same_events(stream, reference));
    ASSERT_TRUE(server.close(id));
  }
  EXPECT_GE(server.stats().engines.reused, 2u);
}

// Splitting one run into many requests changes nothing observable.
TEST(SessionServer, IncrementalRunsMatchOneShot) {
  const SessionSpec spec = spec_with("noise", 123, sim::EngineKind::Sharded,
                                     2, 2);
  SessionServer server;
  const SessionId id = server.open(spec);
  ASSERT_NE(id, kInvalidSession);
  Events stream;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.run(id, 5 * kMillisecond));
    ASSERT_TRUE(server.wait(id));
    append(stream, server.drain(id));
  }
  const Events reference = run_standalone(spec, 30 * kMillisecond);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(same_events(stream, reference));
}

// ---- capacity: eviction and overload --------------------------------------

TEST(SessionServer, EvictsLeastRecentlyUsedIdleSession) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_sessions = 2;
  SessionServer server(cfg);

  const SessionId a = server.open(spec_with("chain", 1, sim::EngineKind::Serial));
  const SessionId b = server.open(spec_with("chain", 2, sim::EngineKind::Serial));
  ASSERT_NE(a, kInvalidSession);
  ASSERT_NE(b, kInvalidSession);
  ASSERT_TRUE(server.run(a, 5 * kMillisecond));
  ASSERT_TRUE(server.run(b, 5 * kMillisecond));
  ASSERT_TRUE(server.wait(a));
  ASSERT_TRUE(server.wait(b));
  ASSERT_TRUE(server.run(a, 0));  // touch a: b becomes the LRU victim

  const SessionId c = server.open(spec_with("chain", 3, sim::EngineKind::Serial));
  ASSERT_NE(c, kInvalidSession);

  const SessionStatus evicted = server.status(b);
  EXPECT_EQ(evicted.id, b);
  EXPECT_EQ(evicted.state, SessionState::Closed);
  EXPECT_TRUE(evicted.evicted);
  EXPECT_EQ(server.status(a).state, SessionState::Ready);  // survivor intact
  EXPECT_EQ(server.stats().evicted, 1u);
  EXPECT_EQ(server.stats().resident, 2u);
  // The evicted id is fully dead: every operation is a clean refusal.
  EXPECT_FALSE(server.run(b, kMillisecond));
  EXPECT_TRUE(server.drain(b).empty());
  EXPECT_FALSE(server.close(b));
}

TEST(SessionServer, RejectsWhenEveryResidentSessionIsBusy) {
  // 0 workers: sessions never get serviced, so both stay Pending (busy) and
  // the third open must shed rather than evict a running session.
  ServerConfig cfg;
  cfg.workers = 0;
  cfg.max_sessions = 2;
  SessionServer server(cfg);
  ASSERT_NE(server.open(SessionSpec{}), kInvalidSession);
  ASSERT_NE(server.open(SessionSpec{}), kInvalidSession);
  std::string error;
  EXPECT_EQ(server.open(SessionSpec{}, &error), kInvalidSession);
  EXPECT_NE(error.find("server full"), std::string::npos);
  EXPECT_EQ(server.stats().rejected, 1u);
}

// Manual mode: poll() drives the scheduler deterministically.
TEST(SessionServer, ManualPollServicesSessions) {
  ServerConfig cfg;
  cfg.workers = 0;
  SessionServer server(cfg);
  const SessionId id = server.open(spec_with("chain", 4, sim::EngineKind::Serial));
  ASSERT_NE(id, kInvalidSession);
  ASSERT_TRUE(server.run(id, 10 * kMillisecond));
  std::size_t polls = 0;
  while (server.poll()) ++polls;
  EXPECT_GE(polls, 10u);  // build + one slice per bio ms
  EXPECT_EQ(server.status(id).bio_now, 10 * kMillisecond);
  const Events reference =
      run_standalone(spec_with("chain", 4, sim::EngineKind::Serial),
                     10 * kMillisecond);
  EXPECT_TRUE(same_events(server.drain(id), reference));
}

// A spec whose net the placer cannot fit is refused at open with the
// placer's error, and counted, rather than opening a session whose load
// fails; the server keeps serving.
TEST(SessionServer, UnplaceableSpecIsRefusedAtOpen) {
  SessionSpec spec;
  spec.app = "noise";
  spec.cores_per_chip = 1;
  spec.neurons_per_core = 1;  // 224 neurons, no application core
  SessionServer server;
  std::string error;
  EXPECT_EQ(server.open(spec, &error), kInvalidSession);
  EXPECT_EQ(error,
            "network does not fit on the machine: 224 neurons need 224 cores "
            "at 1 neurons_per_core, of 0 application cores");
  EXPECT_EQ(server.stats().rejected, 1u);
  EXPECT_EQ(server.stats().opened, 0u);
  const SessionId next = server.open(SessionSpec{});
  ASSERT_NE(next, kInvalidSession);
  EXPECT_TRUE(server.run(next, kMillisecond));
  EXPECT_TRUE(server.wait(next));
}

// Booted sessions carry their boot report through status().
TEST(SessionServer, BootedSessionReportsChipsAlive) {
  SessionSpec spec = spec_with("noise", 6, sim::EngineKind::Serial);
  spec.boot = true;
  SessionServer server;
  const SessionId id = server.open(spec);
  ASSERT_NE(id, kInvalidSession);
  ASSERT_TRUE(server.run(id, 10 * kMillisecond));
  ASSERT_TRUE(server.wait(id));
  EXPECT_EQ(server.status(id).chips_alive, 4u);  // 2x2 machine
  const Events reference = run_standalone(spec, 10 * kMillisecond);
  EXPECT_TRUE(same_events(server.drain(id), reference));
}

// Destroying a server with live (even mid-run) sessions is clean; their
// engines drain back through the pool.  ASan/TSan guard the teardown path.
TEST(SessionServer, ShutdownWithLiveSessionsIsClean) {
  ServerConfig cfg;
  cfg.workers = 2;
  SessionServer server(cfg);
  for (int i = 0; i < 4; ++i) {
    const SessionId id = server.open(
        spec_with("noise", 50 + static_cast<std::uint64_t>(i),
                  i % 2 == 0 ? sim::EngineKind::Serial
                             : sim::EngineKind::Sharded,
                  2, 2));
    ASSERT_NE(id, kInvalidSession);
    ASSERT_TRUE(server.run(id, 200 * kMillisecond));  // won't finish
  }
  // Destructor runs here with sessions still owing bio time.
}

// ---- the slice lock and the control lock ------------------------------------

// An open asks every resident session whether it is busy while it holds the
// server lock.  The answer comes from what the last slice published, so the
// open does not wait for a busy session's slice: with the only resident
// session inside one long slice, the open is refused while the slice runs.
TEST(SessionServer, OpenDoesNotWaitForABusySessionsSlice) {
  constexpr TimeNs kRun = 300 * kMillisecond;
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_sessions = 1;
  cfg.slice = kRun;  // the whole run is one slice
  SessionServer server(cfg);
  const SessionId id = server.open_and_run(test::heavy_spec(1), kRun);
  ASSERT_NE(id, kInvalidSession);
  // The build and the slice run in one service call; the session leaves
  // Pending when the slice starts.
  while (server.status(id).state == SessionState::Pending) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string error;
  EXPECT_EQ(server.open(spec_with("chain", 2, sim::EngineKind::Serial),
                        &error),
            kInvalidSession);
  EXPECT_NE(error.find("server full"), std::string::npos) << error;
  // The slice is still in flight: the refusal did not wait for it.
  const SessionStatus st = server.status(id);
  EXPECT_EQ(st.state, SessionState::Running);
  EXPECT_EQ(st.bio_now, 0);
  ASSERT_TRUE(server.wait(id));
  EXPECT_EQ(server.status(id).bio_now, kRun);
}

// close() marks the session closed, so no further slice starts, and then
// waits for the slice in flight: the session stops at most one slice past
// what a client saw before the close, and the tombstone says where.
TEST(SessionServer, CloseMidRunStopsWithinOneSlice) {
  constexpr TimeNs kRun = 2000 * kMillisecond;
  ServerConfig cfg;
  cfg.workers = 1;  // 1 ms slices
  SessionServer server(cfg);
  const SessionId id = server.open_and_run(test::heavy_spec(2), kRun);
  ASSERT_NE(id, kInvalidSession);
  TimeNs before = 0;
  while ((before = server.status(id).bio_now) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_LT(before, kRun);  // a status asked mid-run answers mid-run
  ASSERT_TRUE(server.close(id));
  const SessionStatus st = server.status(id);
  EXPECT_EQ(st.state, SessionState::Closed);
  EXPECT_GE(st.bio_now, before);
  EXPECT_LE(st.bio_now, before + cfg.slice);
  EXPECT_TRUE(server.drain(id).empty());
}

// Client verbs racing the workers: four threads send drain, status, run,
// fault and busy to four sessions while two workers slice them.  Each
// drain hands over every spike of the completed slices exactly once, so a
// session's drains, concatenated in the order they returned, equal
// run_standalone.  Each fault is handed to the controller exactly once; it
// is timed past the end of the run, so the stream stays fault-free.
TEST(SessionServer, ClientVerbsRacingSlicesKeepStreamsBitIdentical) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 400;
  constexpr TimeNs kStep = 2 * kMillisecond;
  const std::vector<SessionSpec> specs = {
      spec_with("noise", 61, sim::EngineKind::Serial),
      spec_with("noise", 62, sim::EngineKind::Sharded, 2, 2),
      spec_with("stdp", 63, sim::EngineKind::Serial),
      spec_with("chain", 64, sim::EngineKind::Sharded, 4, 2),
  };
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_sessions = specs.size();
  SessionServer server(cfg);
  std::vector<SessionId> ids;
  for (const SessionSpec& spec : specs) {
    ids.push_back(server.open(spec));
    ASSERT_NE(ids.back(), kInvalidSession);
  }

  // Per session: the drains in the order they returned (a drain and its
  // append happen under one lock), the run calls and the faults accepted.
  struct Stream {
    Mutex mu;
    Events events;
    std::atomic<int> runs{0};
    std::atomic<int> faults{0};
  };
  std::vector<Stream> streams(specs.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<TimeNs> seen(specs.size(), 0);
      for (int r = 0; r < kRounds; ++r) {
        const std::size_t s = static_cast<std::size_t>(t + r) % specs.size();
        const SessionId id = ids[s];
        switch ((t + r / specs.size()) % 5) {
          case 0:
            ASSERT_TRUE(server.run(id, kStep));
            ++streams[s].runs;
            break;
          case 1: {
            MutexLock lk(&streams[s].mu);
            append(streams[s].events, server.drain(id));
            break;
          }
          case 2: {
            const SessionStatus st = server.status(id);
            EXPECT_LE(st.bio_now, st.bio_target);
            EXPECT_LE(st.spikes_drained, st.spikes_recorded);
            EXPECT_GE(st.bio_now, seen[s]);  // progress never goes back
            seen[s] = st.bio_now;
            break;
          }
          case 3: {
            FaultAction far;
            far.at = 1000 * kMillisecond;  // past the end of the run
            far.chip = {1, 1};
            far.core = 1;
            std::string error;
            ASSERT_TRUE(server.fault(id, far, &error)) << error;
            ++streams[s].faults;
            break;
          }
          default:
            server.busy(id);
            break;
        }
        // Spread the verbs over the slices the runs queue.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  for (auto& c : clients) c.join();

  for (std::size_t s = 0; s < specs.size(); ++s) {
    SCOPED_TRACE("session " + std::to_string(s) + " app=" + specs[s].app);
    ASSERT_TRUE(server.wait(ids[s]));
    append(streams[s].events, server.drain(ids[s]));
    const TimeNs total = streams[s].runs.load() * kStep;
    const SessionStatus st = server.status(ids[s]);
    EXPECT_EQ(st.bio_now, total);
    EXPECT_EQ(st.faults_scheduled,
              static_cast<std::size_t>(streams[s].faults.load()));
    EXPECT_EQ(st.faults_executed, 0u);
    EXPECT_EQ(st.spikes_drained, st.spikes_recorded);
    const Events reference = run_standalone(specs[s], total);
    EXPECT_TRUE(same_events(streams[s].events, reference))
        << "stream size " << streams[s].events.size() << " vs reference "
        << reference.size();
  }
}

// ---- cost-aware admission --------------------------------------------------

// The admission cost model itself: (machine footprint + the network's
// estimated synapse count) × declared bio ms, 0 when no bio time is
// declared.  The synapse term comes from connector statistics, before any
// elaboration — a densely-wired net costs more than a sparse one on the
// same machine.
TEST(CostAdmission, CostIsFootprintPlusSynapsesTimesDeclaredBioTime) {
  SessionSpec spec;  // 2x2 chips × 6 cores × 64 neurons = 1536 machine units
  const std::uint64_t unit = 1536u + estimated_synapses(spec);
  EXPECT_GT(estimated_synapses(spec), 0u);  // noise is actually wired
  EXPECT_EQ(admission_footprint(spec), unit);
  EXPECT_EQ(admission_cost(spec), 0u);  // zero-cost: nothing declared
  spec.bio_hint = 10 * kMillisecond;
  EXPECT_EQ(admission_cost(spec), unit * 10u);
  // initial_run dominates when larger; partial ms round up.
  EXPECT_EQ(admission_cost(spec, 20 * kMillisecond), unit * 20u);
  EXPECT_EQ(admission_cost(spec, 20 * kMillisecond + 1), unit * 21u);
  spec.bio_hint = 0;
  EXPECT_EQ(admission_cost(spec, 5 * kMillisecond), unit * 5u);
  // The noise app: 64→128 at p=0.2 (1639 expected, ceil), 128→32 at p=0.1
  // (410), 32→128 at p=0.1 (410).
  EXPECT_EQ(estimated_synapses(spec), 1639u + 410u + 410u);
}

// footprint × bio_ms can exceed 2^64 for valid specs; the cost must
// saturate (and so exceed any finite budget), never wrap small.
TEST(CostAdmission, CostSaturatesInsteadOfWrapping) {
  SessionSpec spec;
  spec.width = 256;
  spec.height = 256;
  spec.cores_per_chip = 20;
  spec.neurons_per_core = 1u << 20;  // footprint ≈ 1.37e12
  const TimeNs run = 1'000'000'000 * kMillisecond;  // the protocol cap
  EXPECT_EQ(admission_cost(spec, run),
            std::numeric_limits<std::uint64_t>::max());

  ServerConfig cfg;
  cfg.workers = 0;
  cfg.cost_budget = 1u << 30;  // generous, but finite
  SessionServer server(cfg);
  std::string error;
  EXPECT_EQ(server.open_and_run(spec, run, &error), kInvalidSession);
  EXPECT_NE(error.find("exceeds the whole budget"), std::string::npos);
}

TEST(CostAdmission, ZeroCostSpecsAdmitUnderAnyBudget) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.cost_budget = 1;  // essentially nothing
  SessionServer server(cfg);
  const SessionId id = server.open(spec_with("chain", 1, sim::EngineKind::Serial));
  ASSERT_NE(id, kInvalidSession);
  EXPECT_TRUE(server.run(id, 5 * kMillisecond));
  EXPECT_TRUE(server.wait(id));
  EXPECT_EQ(server.stats().cost_resident, 0u);
  EXPECT_EQ(server.stats().cost_budget, 1u);
}

TEST(CostAdmission, CostExactlyAtBudgetIsAdmitted) {
  SessionSpec spec = spec_with("chain", 2, sim::EngineKind::Serial);
  spec.bio_hint = 10 * kMillisecond;
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.cost_budget = admission_cost(spec);  // exact fit
  SessionServer server(cfg);
  std::string error;
  const SessionId id = server.open(spec, &error);
  ASSERT_NE(id, kInvalidSession) << error;
  EXPECT_EQ(server.stats().cost_resident, cfg.cost_budget);
  // One more unit over the line is rejected outright (it alone exceeds
  // the whole budget, so no eviction can help).
  SessionSpec over = spec;
  over.seed = 3;
  over.bio_hint = 11 * kMillisecond;
  EXPECT_EQ(server.open(over, &error), kInvalidSession);
  EXPECT_NE(error.find("exceeds the whole budget"), std::string::npos);
  EXPECT_EQ(server.stats().rejected_cost, 1u);
}

// Over-budget opens evict idle sessions to make room; the costliest idle
// session goes first (fewest teardowns free the most budget).
TEST(CostAdmission, EvictsCostliestIdleFirstToFreeBudget) {
  SessionSpec small = spec_with("chain", 1, sim::EngineKind::Serial);
  small.bio_hint = 2 * kMillisecond;
  SessionSpec big = spec_with("chain", 2, sim::EngineKind::Serial);
  big.bio_hint = 8 * kMillisecond;

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.cost_budget = admission_cost(small) + admission_cost(big);
  SessionServer server(cfg);

  const SessionId small_id = server.open(small);
  const SessionId big_id = server.open(big);
  ASSERT_NE(small_id, kInvalidSession);
  ASSERT_NE(big_id, kInvalidSession);
  ASSERT_TRUE(server.wait(small_id));
  ASSERT_TRUE(server.wait(big_id));
  // `big` was touched more recently than `small`, yet cost outranks
  // recency: the 8 ms session is the victim.
  ASSERT_TRUE(server.run(big_id, 0));

  SessionSpec incoming = spec_with("chain", 3, sim::EngineKind::Serial);
  incoming.bio_hint = 5 * kMillisecond;
  const SessionId in_id = server.open(incoming);
  ASSERT_NE(in_id, kInvalidSession);
  EXPECT_TRUE(server.status(big_id).evicted);
  EXPECT_FALSE(server.status(small_id).evicted);
  EXPECT_EQ(server.stats().cost_resident,
            admission_cost(small) + admission_cost(incoming));
}

// A rejected open must not cost resident sessions their state: when even
// evicting every idle session couldn't fit the newcomer, nothing is
// evicted at all.
TEST(CostAdmission, InfeasibleOpenEvictsNothing) {
  SessionSpec idle_spec = spec_with("chain", 1, sim::EngineKind::Serial);
  idle_spec.bio_hint = 2 * kMillisecond;

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.cost_budget = 10 * admission_cost(idle_spec);
  SessionServer server(cfg);

  // Two idle sessions and one busy one holding most of the budget.
  const SessionId a = server.open(idle_spec);
  SessionSpec b_spec = idle_spec;
  b_spec.seed = 2;
  const SessionId b = server.open(b_spec);
  ASSERT_NE(a, kInvalidSession);
  ASSERT_NE(b, kInvalidSession);
  ASSERT_TRUE(server.wait(a));
  ASSERT_TRUE(server.wait(b));

  // The newcomer needs more than the whole budget minus the busy share —
  // infeasible even after evicting both idle sessions.  All specs are
  // chain-shaped so every cost is proportional to declared ms (the synapse
  // term is identical): budget = 20 ms-units, busy holds 16, the idles 2+2.
  SessionSpec huge = spec_with("chain", 3, sim::EngineKind::Serial);
  huge.bio_hint = 19 * kMillisecond;  // 19 > 20 - 16: infeasible
  SessionSpec busy_spec = spec_with("chain", 4, sim::EngineKind::Serial);
  busy_spec.bio_hint = 16 * kMillisecond;  // exact fit alongside the idles
  const SessionId busy = server.open(busy_spec);
  ASSERT_NE(busy, kInvalidSession);
  // Far more bio time than the test lasts (a chain run of 100 ms could end
  // before the next open, leaving `busy` idle and evictable); close() below
  // stops it within one slice.
  ASSERT_TRUE(server.run(busy, 1'000'000 * kMillisecond));

  std::string error;
  EXPECT_EQ(server.open(huge, &error), kInvalidSession);
  EXPECT_NE(error.find("cost budget exhausted"), std::string::npos);
  // Both idle sessions survived the rejected open.
  EXPECT_EQ(server.status(a).state, SessionState::Ready);
  EXPECT_EQ(server.status(b).state, SessionState::Ready);
  EXPECT_EQ(server.stats().evicted, 0u);
  EXPECT_TRUE(server.close(busy));
}

// Equal costs fall back to the PR 3 policy: least-recently-used idles out.
TEST(CostAdmission, EqualCostsEvictLeastRecentlyUsed) {
  SessionSpec spec = spec_with("chain", 1, sim::EngineKind::Serial);
  spec.bio_hint = 4 * kMillisecond;

  ServerConfig cfg;
  cfg.workers = 1;
  cfg.cost_budget = 2 * admission_cost(spec);
  SessionServer server(cfg);

  SessionSpec a = spec, b = spec;
  b.seed = 2;
  const SessionId a_id = server.open(a);
  const SessionId b_id = server.open(b);
  ASSERT_NE(a_id, kInvalidSession);
  ASSERT_NE(b_id, kInvalidSession);
  ASSERT_TRUE(server.wait(a_id));
  ASSERT_TRUE(server.wait(b_id));
  ASSERT_TRUE(server.run(a_id, 0));  // touch a: b becomes the LRU victim

  SessionSpec c = spec;
  c.seed = 3;
  const SessionId c_id = server.open(c);
  ASSERT_NE(c_id, kInvalidSession);
  EXPECT_TRUE(server.status(b_id).evicted);
  EXPECT_EQ(server.status(a_id).state, SessionState::Ready);
}

// open_and_run: admission + build + first run in one scheduler submission,
// observably identical to open() followed by run().
TEST(CostAdmission, OpenAndRunMatchesOpenThenRun) {
  const SessionSpec spec = spec_with("noise", 77, sim::EngineKind::Serial);
  SessionServer server;
  const SessionId id = server.open_and_run(spec, 15 * kMillisecond);
  ASSERT_NE(id, kInvalidSession);
  ASSERT_TRUE(server.wait(id));
  const Events reference = run_standalone(spec, 15 * kMillisecond);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(same_events(server.drain(id), reference));
  EXPECT_EQ(server.status(id).bio_target, 15 * kMillisecond);
}

// notify_idle: the non-blocking wait used by the socket transport.
TEST(CostAdmission, NotifyIdleFiresOnceWorkDrains) {
  ServerConfig cfg;
  cfg.workers = 0;  // drive manually so the firing point is deterministic
  SessionServer server(cfg);
  const SessionId id = server.open(spec_with("chain", 5, sim::EngineKind::Serial));
  ASSERT_NE(id, kInvalidSession);
  ASSERT_TRUE(server.run(id, 3 * kMillisecond));

  std::atomic<int> fired{0};
  ASSERT_TRUE(server.notify_idle(id, [&] { ++fired; }));
  EXPECT_EQ(fired.load(), 0);  // busy: parked
  while (server.poll()) {
  }
  EXPECT_EQ(fired.load(), 1);  // fired exactly once, from the last slice

  // Already idle: fires inline on the caller's thread.
  ASSERT_TRUE(server.notify_idle(id, [&] { ++fired; }));
  EXPECT_EQ(fired.load(), 2);
  // Unknown ids refuse without invoking.
  EXPECT_FALSE(server.notify_idle(9999, [&] { ++fired; }));
  EXPECT_EQ(fired.load(), 2);
}

// ---- engine-pool stress (concurrent churn) ---------------------------------

// Raw pool churn: more threads than the pool keeps idle engines, acquiring
// and releasing mixed engine shapes concurrently.  The pool's books must
// balance and never exceed kMaxIdle.
TEST(EnginePoolStress, ConcurrentAcquireReleaseChurn) {
  EnginePool pool;
  constexpr int kThreads = static_cast<int>(EnginePool::kMaxIdle) + 4;
  constexpr int kIterations = 40;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIterations; ++i) {
        sim::EngineConfig cfg;
        if (t % 2 == 0) {
          cfg.kind = sim::EngineKind::Sharded;
          cfg.shards = 2;
          cfg.threads = 1;
        }
        auto lease = pool.acquire(cfg);
        ASSERT_TRUE(static_cast<bool>(lease));
        // Touch the engine so a broken lease crashes here, not later.
        lease.get()->reset(static_cast<std::uint64_t>(t * 1000 + i));
        lease.release();
      }
    });
  }
  for (auto& t : threads) t.join();

  const EnginePool::Stats st = pool.stats();
  EXPECT_EQ(st.created + st.reused,
            static_cast<std::uint64_t>(kThreads * kIterations));
  EXPECT_LE(st.idle, EnginePool::kMaxIdle);
  EXPECT_GT(st.reused, 0u);
}

// The PR 3 suite proved reset-equals-fresh single-threaded; this closes
// the gap under concurrency: engines churned across many threads (and
// therefore reset and rewired many times, in racing orders) must still
// drive spike streams bit-identical to standalone runs.
TEST(EnginePoolStress, ChurnedEnginesStayBitIdentical) {
  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 5;
  constexpr TimeNs kRun = 8 * kMillisecond;

  ServerConfig cfg;
  cfg.workers = 4;
  cfg.max_sessions = 16;
  SessionServer server(cfg);

  std::vector<std::vector<Events>> streams(
      kThreads, std::vector<Events>(kSessionsPerThread));
  std::vector<SessionSpec> specs;
  for (int t = 0; t < kThreads; ++t) {
    specs.push_back(t % 2 == 0
                        ? spec_with("noise", 100 + static_cast<std::uint64_t>(t),
                                    sim::EngineKind::Sharded, 2, 2)
                        : spec_with("chain", 200 + static_cast<std::uint64_t>(t),
                                    sim::EngineKind::Serial));
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        const SessionId id = server.open(specs[static_cast<std::size_t>(t)]);
        ASSERT_NE(id, kInvalidSession);
        ASSERT_TRUE(server.run(id, kRun));
        ASSERT_TRUE(server.wait(id));
        streams[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] =
            server.drain(id);
        ASSERT_TRUE(server.close(id));
      }
    });
  }
  for (auto& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    const Events reference =
        run_standalone(specs[static_cast<std::size_t>(t)], kRun);
    ASSERT_FALSE(reference.empty());
    for (int i = 0; i < kSessionsPerThread; ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " session " +
                   std::to_string(i));
      EXPECT_TRUE(same_events(
          streams[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
          reference));
    }
  }
  // Churn through 20 sessions on a 4-idle pool must have recycled engines.
  EXPECT_GT(server.stats().engines.reused, 0u);
}

// ---- the incremental drain primitive --------------------------------------

TEST(SpikeRecorderDrain, DrainsAreDisjointAndComplete) {
  neural::SpikeRecorder rec;
  rec.record(1, 100);
  rec.record(2, 200);
  auto first = rec.drain();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].time, 1);
  EXPECT_EQ(first[1].key, 200u);
  EXPECT_TRUE(rec.drain().empty());  // nothing new
  rec.record(3, 300);
  auto second = rec.drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].key, 300u);
  EXPECT_EQ(rec.drained(), 3u);
  EXPECT_EQ(rec.count(), 3u);            // lifetime total
  EXPECT_EQ(rec.events().size(), 3u);    // default mode: full log retained
  rec.clear();
  EXPECT_EQ(rec.drained(), 0u);
}

// Streaming mode (what server sessions run): drained events are released,
// the counters stay monotonic.
TEST(SpikeRecorderDrain, StreamingModeReleasesDrainedPrefix) {
  neural::SpikeRecorder rec;
  rec.retain_drained(false);
  rec.record(1, 100);
  rec.record(2, 200);
  EXPECT_EQ(rec.drain().size(), 2u);
  EXPECT_TRUE(rec.events().empty());  // prefix released
  rec.record(3, 300);
  auto next = rec.drain();
  ASSERT_EQ(next.size(), 1u);         // drains stay disjoint and complete
  EXPECT_EQ(next[0].key, 300u);
  EXPECT_EQ(rec.count(), 3u);         // lifetime total unaffected
  EXPECT_EQ(rec.drained(), 3u);
  // drain_into appends to a buffer that already holds events.
  rec.record(4, 400);
  Events buffer = {{3, 300}};
  rec.drain_into(buffer);
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer[1].key, 400u);
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.drained(), 4u);
}

}  // namespace
}  // namespace spinn::server
