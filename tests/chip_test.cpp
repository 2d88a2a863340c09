// Tests for the chip composition: monitor election via the read-sensitive
// register (§5.2), the event-driven core model with Fig. 7 priorities, DMA
// through the System NoC, GALS clock drift, and timers.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "chip/chip.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/simulator.hpp"

namespace spinn::chip {
namespace {

ChipConfig test_chip_config() {
  ChipConfig cfg;
  cfg.num_cores = 8;  // smaller chips keep tests brisk
  cfg.clock_drift_ppm_sigma = 0.0;
  return cfg;
}

// ---- system controller -----------------------------------------------------

TEST(SystemController, FirstReaderWins) {
  SystemController sc;
  EXPECT_TRUE(sc.read_monitor_arbiter(3));
  EXPECT_FALSE(sc.read_monitor_arbiter(4));
  EXPECT_FALSE(sc.read_monitor_arbiter(3));
  EXPECT_EQ(sc.monitor(), std::optional<CoreIndex>(3));
}

TEST(SystemController, ResetReopensArbitration) {
  SystemController sc;
  sc.read_monitor_arbiter(1);
  sc.reset();
  EXPECT_FALSE(sc.monitor().has_value());
  EXPECT_TRUE(sc.read_monitor_arbiter(5));
}

// ---- monitor election ------------------------------------------------------

class ElectionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ElectionTest, ExactlyOneMonitorChosen) {
  sim::Simulator sim(GetParam());
  Rng seeds(GetParam());
  Chip chip(sim, {0, 0}, test_chip_config(), seeds);
  std::optional<CoreIndex> winner;
  int callbacks = 0;
  chip.run_self_test_and_election([&](std::optional<CoreIndex> m) {
    winner = m;
    ++callbacks;
  });
  sim.run();
  EXPECT_EQ(callbacks, 1);
  ASSERT_TRUE(winner.has_value());
  EXPECT_LT(*winner, chip.num_cores());
  EXPECT_EQ(chip.monitor_core(), winner);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElectionTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 99u, 12345u));

TEST(Election, FailedCoresNeverWin) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Simulator sim(seed);
    Rng seeds(seed);
    ChipConfig cfg = test_chip_config();
    cfg.core_fail_prob = 0.5;
    Chip chip(sim, {0, 0}, cfg, seeds);
    std::optional<CoreIndex> winner;
    chip.run_self_test_and_election(
        [&](std::optional<CoreIndex> m) { winner = m; });
    sim.run();
    if (winner.has_value()) {
      EXPECT_NE(chip.core(*winner).state(), CoreState::Failed)
          << "seed " << seed;
    }
  }
}

TEST(Election, AllCoresFailedYieldsNoMonitor) {
  sim::Simulator sim(1);
  Rng seeds(1);
  ChipConfig cfg = test_chip_config();
  cfg.core_fail_prob = 1.0;
  Chip chip(sim, {0, 0}, cfg, seeds);
  std::optional<CoreIndex> winner{0};
  chip.run_self_test_and_election(
      [&](std::optional<CoreIndex> m) { winner = m; });
  sim.run();
  EXPECT_FALSE(winner.has_value());
}

TEST(Election, CompletesWithinSelfTestWindow) {
  sim::Simulator sim(7);
  Rng seeds(7);
  Chip chip(sim, {0, 0}, test_chip_config(), seeds);
  TimeNs resolved_at = -1;
  chip.run_self_test_and_election(
      [&](std::optional<CoreIndex>) { resolved_at = sim.now(); });
  sim.run();
  EXPECT_GE(resolved_at, 100 * kMicrosecond);
  EXPECT_LE(resolved_at, 200 * kMicrosecond);
}

// ---- core event model (Fig. 7) ---------------------------------------------

/// Program that logs the order in which its handlers run.
class OrderProbe final : public CoreProgram {
 public:
  explicit OrderProbe(std::vector<char>* log) : log_(log) {}
  std::uint64_t on_timer(CoreApi&) override {
    log_->push_back('T');
    return 100;
  }
  std::uint64_t on_packet(CoreApi&, const router::Packet&) override {
    log_->push_back('P');
    return 100;
  }
  std::uint64_t on_dma_done(CoreApi&, const DmaDone&) override {
    log_->push_back('D');
    return 100;
  }

 private:
  std::vector<char>* log_;
};

struct CoreHarness {
  sim::Simulator sim{1};
  Rng seeds{1};
  Chip chip;

  explicit CoreHarness(ChipConfig cfg = test_chip_config())
      : chip(sim, ChipCoord{0, 0}, cfg, seeds) {}
};

TEST(Core, PriorityOrderPacketDmaTimer) {
  CoreHarness h;
  std::vector<char> log;
  Core& core = h.chip.core(1);
  core.load_program(std::make_unique<OrderProbe>(&log));
  core.start();
  h.sim.run();
  log.clear();

  // While the core is busy with one packet, queue one of each event type;
  // on completion it must drain packet, then DMA, then timer.
  router::Packet p;
  p.type = router::PacketType::Multicast;
  core.packet_interrupt(p);   // starts service immediately
  core.packet_interrupt(p);   // queued (priority 1)
  core.dma_interrupt(DmaDone{});  // queued (priority 2)
  core.timer_interrupt();     // queued (priority 3)
  h.sim.run();
  EXPECT_EQ(log, (std::vector<char>{'P', 'P', 'D', 'T'}));
}

TEST(Core, BusyTimeFollowsInstructionCount) {
  CoreHarness h;
  std::vector<char> log;
  Core& core = h.chip.core(1);
  core.load_program(std::make_unique<OrderProbe>(&log));
  core.start();
  h.sim.run();
  const TimeNs before = core.stats().busy_ns;
  core.timer_interrupt();
  h.sim.run();
  // 100 instructions at 200 MHz / 0.8 IPC = 625 ns.
  EXPECT_EQ(core.stats().busy_ns - before, 625);
}

TEST(Core, OverrunDetectedWhenTimerPilesUp) {
  CoreHarness h;

  /// A pathologically slow timer handler (10 ms of work per 1 ms tick).
  class Slow final : public CoreProgram {
   public:
    std::uint64_t on_timer(CoreApi&) override { return 2'000'000; }
  };
  Core& core = h.chip.core(1);
  core.load_program(std::make_unique<Slow>());
  core.start();
  h.sim.run();
  core.timer_interrupt();
  core.timer_interrupt();  // arrives while the first is still being served
  h.sim.run();
  EXPECT_GE(core.stats().overruns, 1u);
}

TEST(Core, PacketQueueOverflowDropsAndCounts) {
  CoreHarness h;
  std::vector<char> log;
  Core& core = h.chip.core(1);
  core.load_program(std::make_unique<OrderProbe>(&log));
  core.start();
  h.sim.run();
  router::Packet p;
  for (std::size_t i = 0; i < Core::kPacketQueueLimit + 50; ++i) {
    core.packet_interrupt(p);
  }
  EXPECT_GT(core.stats().packets_dropped, 0u);
  h.sim.run();
}

TEST(Core, FailedCoreIgnoresEvents) {
  CoreHarness h;
  std::vector<char> log;
  Core& core = h.chip.core(1);
  core.load_program(std::make_unique<OrderProbe>(&log));
  core.mark_failed();
  core.start();
  core.timer_interrupt();
  router::Packet p;
  core.packet_interrupt(p);
  h.sim.run();
  EXPECT_TRUE(log.empty());
}

TEST(Core, KillCountsRowReadsQueuedAndInFlight) {
  CoreHarness h;

  /// A 1.25 ms timer handler: a row read landing meanwhile waits queued.
  class Busy final : public CoreProgram {
   public:
    std::uint64_t on_timer(CoreApi&) override { return 200'000; }
  };
  Core& core = h.chip.core(1);
  core.load_program(std::make_unique<Busy>());
  core.start();
  h.sim.run();
  core.timer_interrupt();
  const TimeNs t0 = h.sim.now();
  core.dma_read(64, /*cookie=*/1);       // lands after ~164 ns: queued
  core.dma_read(100'000, /*cookie=*/2);  // ~100 us in the System NoC
  core.dma_write(64, /*cookie=*/3);      // a write-back loses no spike
  h.sim.run_until(t0 + 10 * kMicrosecond);
  ASSERT_EQ(core.state(), CoreState::Busy);
  const std::uint64_t before = core.stats().packets_dropped;

  // Kill as the fault controller does: quiesce, then migrate away.
  core.mark_failed();
  ASSERT_NE(core.take_program(), nullptr);
  h.sim.run();
  EXPECT_EQ(core.stats().packets_dropped - before, 2u);
}

// ---- handler completions: an event only while work waits -------------------

/// Program that logs each handler it runs: kind, core and start instant.
class StartLog final : public CoreProgram {
 public:
  struct Entry {
    char kind;
    CoreIndex core;
    TimeNs at;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  StartLog(std::vector<Entry>* log, std::uint64_t instructions,
           std::uint64_t start_instructions = 100)
      : log_(log),
        instructions_(instructions),
        start_instructions_(start_instructions) {}

  std::uint64_t on_start(CoreApi&) override { return start_instructions_; }
  std::uint64_t on_timer(CoreApi& api) override { return note('T', api); }
  std::uint64_t on_packet(CoreApi& api, const router::Packet&) override {
    return note('P', api);
  }
  std::uint64_t on_dma_done(CoreApi& api, const DmaDone&) override {
    return note('D', api);
  }

 private:
  std::uint64_t note(char kind, CoreApi& api) {
    log_->push_back(Entry{kind, api.id().core, api.now()});
    return instructions_;
  }

  std::vector<Entry>* log_;
  std::uint64_t instructions_;
  std::uint64_t start_instructions_;
};

using Entry = StartLog::Entry;

router::Packet mc_packet() {
  router::Packet p;
  p.type = router::PacketType::Multicast;
  p.key = 0x100;
  return p;
}

TEST(Core, LoneHandlerRunsNoCompletionEvent) {
  CoreHarness h;
  std::vector<Entry> log;
  Core& core = h.chip.core(1);
  core.load_program(std::make_unique<StartLog>(&log, 100));
  core.start();
  h.sim.run();
  const TimeNs t0 = h.sim.now();
  const std::uint64_t before = h.sim.queue().executed();
  core.timer_interrupt();  // a 625 ns handler, and nothing waits behind it
  EXPECT_EQ(core.state(), CoreState::Busy);
  h.sim.run();
  EXPECT_EQ(h.sim.queue().executed() - before, 0u);
  EXPECT_EQ(h.sim.now(), t0 + 625) << "a drained run ends at the handler end";
  EXPECT_EQ(core.state(), CoreState::Sleeping);
  EXPECT_EQ(log, (std::vector<Entry>{{'T', 1, t0}}));
}

TEST(Core, StateReadsSleepingOnceTheClockPassesTheEnd) {
  CoreHarness h;
  std::vector<Entry> log;
  Core& core = h.chip.core(1);
  core.load_program(std::make_unique<StartLog>(&log, 100));
  core.start();
  h.sim.run();
  const TimeNs t0 = h.sim.now();
  const std::uint64_t before = h.sim.queue().executed();
  core.timer_interrupt();
  h.sim.run_until(t0 + 624);
  EXPECT_EQ(core.state(), CoreState::Busy);
  h.sim.run_until(t0 + 625);
  EXPECT_EQ(core.state(), CoreState::Sleeping);
  EXPECT_EQ(h.sim.queue().executed() - before, 0u) << "no event ran";
}

TEST(Core, InterruptAtTheEndInstantQueuesOnlyWhenKeyedBeforeTheCompletion) {
  // The completion is keyed (end, Interrupt, chip actor 2, seq).  An
  // interrupt at the same instant from actor 1 at Interrupt priority sorts
  // before it and finds the core busy: its work queues, and the completion
  // serves the packet first (Fig. 7 priority).  At Fabric priority it sorts
  // after the completion and finds the core asleep: the DMA, raised first,
  // is served at once and the packet waits behind it.
  for (const bool before_completion : {true, false}) {
    SCOPED_TRACE(before_completion ? "Interrupt priority" : "Fabric priority");
    CoreHarness h;
    h.chip.set_actor(2);
    std::vector<Entry> log;
    Core& core = h.chip.core(1);
    core.load_program(std::make_unique<StartLog>(&log, 100));
    core.start();
    h.sim.run();
    const TimeNs t0 = h.sim.now();
    core.timer_interrupt();
    const TimeNs end = t0 + 625;
    h.sim.at_as(end, 1,
                [&core] {
                  core.dma_interrupt(DmaDone{});
                  core.packet_interrupt(mc_packet());
                },
                before_completion ? sim::EventPriority::Interrupt
                                  : sim::EventPriority::Fabric);
    h.sim.run();
    const std::vector<Entry> want =
        before_completion
            ? std::vector<Entry>{{'T', 1, t0}, {'P', 1, end},
                                 {'D', 1, end + 625}}
            : std::vector<Entry>{{'T', 1, t0}, {'D', 1, end},
                                 {'P', 1, end + 625}};
    EXPECT_EQ(log, want);
  }
}

TEST(Core, DrainedRunEndsAtTheHandlerEndOnBothEngines) {
  sim::SerialEngine serial(1);
  sim::ShardedSimulator sharded(1, /*shards=*/2, /*threads=*/1);
  for (sim::ISimulationEngine* engine :
       {static_cast<sim::ISimulationEngine*>(&serial),
        static_cast<sim::ISimulationEngine*>(&sharded)}) {
    SCOPED_TRACE(engine == &serial ? "serial" : "sharded");
    engine->map_actors(3);  // sharded: actor 2 lives on the second shard
    Rng seeds{1};
    Chip chip(engine->context_of(2), ChipCoord{0, 0}, test_chip_config(),
              seeds);
    chip.set_actor(2);
    std::vector<Entry> log;
    chip.core(1).load_program(std::make_unique<StartLog>(&log, 100));
    chip.core(1).start();  // a 625 ns on_start handler; nothing waits
    EXPECT_FALSE(engine->step());
    EXPECT_EQ(engine->now(), 625);
    EXPECT_EQ(engine->root().now(), 625) << "every shard's clock advances";
    EXPECT_EQ(chip.core(1).state(), CoreState::Sleeping);
  }
}

TEST(Core, StoppedHandlerStillEndsTheRestartedCoresHandler) {
  // A handler stopped by a kill or a migration leaves its completion
  // behind.  If the core restarts before that instant, the completion ends
  // whatever handler then runs — here a 2.5 ms on_start, so the packet
  // queued behind it is served at the stopped handler's end.
  for (const bool kill : {true, false}) {
    SCOPED_TRACE(kill ? "mark_failed + take_program" : "take_program");
    CoreHarness h;
    std::vector<Entry> log;
    Core& core = h.chip.core(1);
    core.load_program(std::make_unique<StartLog>(&log, 200'000));
    core.start();
    h.sim.run();
    const TimeNs t0 = h.sim.now();
    core.timer_interrupt();  // 1.25 ms handler
    h.sim.run_until(t0 + 10 * kMicrosecond);
    if (kill) core.mark_failed();
    ASSERT_NE(core.take_program(), nullptr);
    EXPECT_EQ(core.state(), CoreState::Off);

    core.load_program(std::make_unique<StartLog>(&log, 100, 400'000));
    core.start();
    h.sim.run_until(t0 + 20 * kMicrosecond);
    ASSERT_EQ(core.state(), CoreState::Busy);
    core.packet_interrupt(mc_packet());
    h.sim.run();
    EXPECT_EQ(log, (std::vector<Entry>{{'T', 1, t0}, {'P', 1, t0 + 1'250'000}}));
    EXPECT_EQ(h.sim.now(), t0 + 10 * kMicrosecond + 2'500'000)
        << "the restarted handler's own completion is the last instant";
  }
}

TEST(Core, RestartedHandlersOwnCompletionStillFollowsAStaleOne) {
  // The stopped handler's completion ends the restarted 2.5 ms on_start
  // with nothing queued.  The on_start's own completion still fires at its
  // instant and ends the packet handler then running, so a second packet
  // is served at once instead of waiting.
  CoreHarness h;
  std::vector<Entry> log;
  Core& core = h.chip.core(1);
  core.load_program(std::make_unique<StartLog>(&log, 200'000));
  core.start();
  h.sim.run();
  const TimeNs t0 = h.sim.now();
  core.timer_interrupt();  // 1.25 ms handler
  h.sim.run_until(t0 + 10 * kMicrosecond);
  ASSERT_NE(core.take_program(), nullptr);
  core.load_program(std::make_unique<StartLog>(&log, 100, 400'000));
  core.start();
  const TimeNs own_end = t0 + 10 * kMicrosecond + 2'500'000;
  h.sim.run_until(t0 + 1'250'000);
  EXPECT_EQ(core.state(), CoreState::Sleeping);
  h.sim.at(own_end - 300, [&core] { core.packet_interrupt(mc_packet()); });
  h.sim.at(own_end + 100, [&core] { core.packet_interrupt(mc_packet()); });
  h.sim.run();
  EXPECT_EQ(log, (std::vector<Entry>{{'T', 1, t0},
                                     {'P', 1, own_end - 300},
                                     {'P', 1, own_end + 100}}));
}

TEST(Chip, RoutedPacketReachesItsCoresByOneEventInIndexOrder) {
  CoreHarness h;
  std::vector<Entry> log;
  for (CoreIndex c = 1; c <= 3; ++c) {
    h.chip.core(c).load_program(std::make_unique<StartLog>(&log, 1));
    h.chip.core(c).start();
  }
  h.sim.run();
  // Cores 3, 1, 2 and a core index the 8-core chip does not have.
  h.chip.router().mc_table().add(
      {0x100, ~0u,
       router::Route::to_core(3).with_core(1).with_core(2).with_core(10)});
  const TimeNs t0 = h.sim.now();
  std::uint64_t before = h.sim.queue().executed();
  h.chip.router().receive(mc_packet(), std::nullopt);
  h.sim.run();
  EXPECT_EQ(h.sim.queue().executed() - before, 2u)
      << "the router pipeline, then one delivery to every core";
  const TimeNs at = t0 + 100 + 50;  // pipeline + Comms NoC delivery
  ASSERT_EQ(log, (std::vector<Entry>{{'P', 1, at}, {'P', 2, at}, {'P', 3, at}}));
  EXPECT_EQ(h.chip.router().counters().delivered_local, 4u);

  // With 1-instruction handlers, one delivery per core runs the handlers
  // in the same order at the same offsets.
  log.clear();
  const TimeNs t1 = h.sim.now();
  before = h.sim.queue().executed();
  for (const CoreIndex c : {1, 2, 3}) {
    h.chip.comms_noc().deliver(router::CoreSet::of(c), mc_packet());
  }
  h.sim.run();
  EXPECT_EQ(h.sim.queue().executed() - before, 3u);
  EXPECT_EQ(log, (std::vector<Entry>{
                     {'P', 1, t1 + 50}, {'P', 2, t1 + 50}, {'P', 3, t1 + 50}}));
}

// ---- DMA through the System NoC ---------------------------------------------

class DmaProbe final : public CoreProgram {
 public:
  std::vector<DmaDone> completions;
  std::uint64_t on_dma_done(CoreApi&, const DmaDone& d) override {
    completions.push_back(d);
    return 50;
  }
};

TEST(Dma, CompletionArrivesWithTransferDelay) {
  CoreHarness h;
  auto probe = std::make_unique<DmaProbe>();
  DmaProbe* probe_ptr = probe.get();
  Core& core = h.chip.core(1);
  core.load_program(std::move(probe));
  core.start();
  h.sim.run();
  const TimeNs t0 = h.sim.now();
  core.dma_read(1024, /*cookie=*/0xABC);
  h.sim.run();
  ASSERT_EQ(probe_ptr->completions.size(), 1u);
  EXPECT_EQ(probe_ptr->completions[0].cookie, 0xABCu);
  EXPECT_EQ(probe_ptr->completions[0].bytes, 1024u);
  // 100 ns latency + 1024 B at 1 GB/s = 1024 ns  => >= 1124 ns after issue.
  EXPECT_GE(h.sim.now() - t0, 1124);
}

TEST(Dma, SharedSdramSerialisesAcrossCores) {
  CoreHarness h;
  std::vector<DmaProbe*> probes;
  for (CoreIndex i = 1; i <= 4; ++i) {
    auto p = std::make_unique<DmaProbe>();
    probes.push_back(p.get());
    h.chip.core(i).load_program(std::move(p));
    h.chip.core(i).start();
  }
  h.sim.run();
  const TimeNs t0 = h.sim.now();
  for (CoreIndex i = 1; i <= 4; ++i) {
    h.chip.core(i).dma_read(100'000, i);
  }
  h.sim.run();
  // 4 transfers of 100 kB at 1 GB/s cannot complete in under 400 us.
  EXPECT_GE(h.sim.now() - t0, 400 * kMicrosecond);
  for (auto* p : probes) EXPECT_EQ(p->completions.size(), 1u);
}

// ---- clocks and timers -------------------------------------------------------

TEST(ClockDomain, DriftStretchesPeriods) {
  const ClockDomain fast(200e6, 1.0, +100.0);  // +100 ppm
  const ClockDomain slow(200e6, 1.0, -100.0);
  EXPECT_LT(fast.local_period(kMillisecond), kMillisecond);
  EXPECT_GT(slow.local_period(kMillisecond), kMillisecond);
  EXPECT_NEAR(static_cast<double>(fast.local_period(kMillisecond)),
              1e6 / 1.0001, 1.0);
}

TEST(ClockDomain, InstructionTimeScalesWithIpc) {
  const ClockDomain a(200e6, 1.0, 0.0);
  const ClockDomain b(200e6, 0.5, 0.0);
  EXPECT_EQ(a.instruction_time(1000), 5000);   // 5 ns/instr
  EXPECT_EQ(b.instruction_time(1000), 10000);  // 10 ns/instr
}

TEST(Chip, TimersTickAppCoresNotMonitor) {
  CoreHarness h;
  // Elect a monitor first.
  std::optional<CoreIndex> monitor;
  h.chip.run_self_test_and_election(
      [&](std::optional<CoreIndex> m) { monitor = m; });
  h.sim.run();
  ASSERT_TRUE(monitor.has_value());

  std::vector<std::vector<char>> logs(h.chip.num_cores());
  for (CoreIndex i = 0; i < h.chip.num_cores(); ++i) {
    if (h.chip.core(i).state() == CoreState::Failed) continue;
    h.chip.core(i).load_program(std::make_unique<OrderProbe>(&logs[i]));
    h.chip.core(i).start();
  }
  h.sim.run();
  h.chip.start_timers();
  h.sim.run_until(h.sim.now() + 5 * kMillisecond);
  h.chip.stop_timers();
  for (CoreIndex i = 0; i < h.chip.num_cores(); ++i) {
    if (i == *monitor) {
      EXPECT_TRUE(logs[i].empty()) << "monitor must not run app timers";
    } else {
      EXPECT_GE(logs[i].size(), 4u) << "core " << static_cast<int>(i);
    }
  }
}

TEST(Chip, SdramAllocatorTracksUsage) {
  Sdram sdram(1024);
  const auto r1 = sdram.allocate(100);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->bytes, 100u);
  const auto r2 = sdram.allocate(900);
  ASSERT_TRUE(r2.has_value());
  EXPECT_FALSE(sdram.allocate(100).has_value()) << "capacity exhausted";
  EXPECT_GE(sdram.used(), 1000u);
}

TEST(Chip, SdramAlignsAllocations) {
  Sdram sdram(1024);
  const auto r = sdram.allocate(5);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->bytes, 8u);  // word aligned
  const auto r2 = sdram.allocate(4);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->offset % 4, 0u);
}

}  // namespace
}  // namespace spinn::chip
