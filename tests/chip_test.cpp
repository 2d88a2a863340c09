// Tests for the chip composition: monitor election via the read-sensitive
// register (§5.2), the event-driven core model with Fig. 7 priorities, DMA
// through the System NoC, GALS clock drift, and timers.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "chip/chip.hpp"
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
