// Tests for the System facade: boot + load + run as a downstream user would
// drive it, plus bounded-asynchrony behaviour (§3.1) of the machine-wide
// timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/system.hpp"
#include "net/client.hpp"
#include "network_util.hpp"

namespace spinn {
namespace {

SystemConfig tiny() {
  SystemConfig cfg;
  cfg.machine.width = 2;
  cfg.machine.height = 2;
  cfg.machine.chip.num_cores = 5;
  cfg.boot.image_blocks = 4;
  cfg.boot.words_per_block = 8;
  return cfg;
}

TEST(System, BootThenLoadThenRun) {
  System sys(tiny());
  const auto boot_report = sys.boot();
  EXPECT_TRUE(boot_report.complete);
  EXPECT_EQ(boot_report.chips_alive, 4u);

  net::NetBuilder b;
  b.spike_source("s", {{1, 2, 3}});
  b.lif("d", 4);
  b.project("s", "d", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(30.0), neural::ValueDist::fixed(1.0));
  const auto load_report = sys.load(test::compile(b.description()));
  ASSERT_TRUE(load_report.ok) << load_report.error;

  // Placement must respect the *booted* monitors.
  for (const auto& s : load_report.placement.slices) {
    const auto monitor =
        sys.machine().chip_at(s.core.chip).monitor_core();
    ASSERT_TRUE(monitor.has_value());
    EXPECT_NE(s.core.core, *monitor);
  }

  sys.run(10 * kMillisecond);
  EXPECT_GT(sys.spikes().count(), 0u);
}

TEST(System, LoadWithoutBootAlsoWorks) {
  System sys(tiny());
  net::NetBuilder b;
  b.poisson("p", 16, 100.0).record = true;
  ASSERT_TRUE(sys.load(test::compile(b.description())).ok);
  sys.run(20 * kMillisecond);
  EXPECT_GT(sys.spikes().count(), 0u);
}

TEST(System, RunAdvancesSimTime) {
  System sys(tiny());
  const TimeNs t0 = sys.now();
  sys.run(5 * kMillisecond);
  EXPECT_EQ(sys.now() - t0, 5 * kMillisecond);
  sys.run(5 * kMillisecond);
  EXPECT_EQ(sys.now() - t0, 10 * kMillisecond);
}

TEST(System, BootReportsPartialProgressOnDeadOriginFabric) {
  // Kill every neighbour of (0,0) plus the origin's links: boot cannot
  // flood, and boot() must come back (incomplete) rather than hang.
  SystemConfig cfg = tiny();
  System sys(cfg);
  for (int l = 0; l < kLinksPerChip; ++l) {
    sys.machine().fail_link({0, 0}, static_cast<LinkDir>(l));
  }
  const auto report = sys.boot();
  EXPECT_FALSE(report.complete);
}

// ---- bounded asynchrony (§3.1, E9) -------------------------------------------

/// Program that logs its timer-tick times.
class TickLogger final : public chip::CoreProgram {
 public:
  explicit TickLogger(std::vector<TimeNs>* out) : out_(out) {}
  std::uint64_t on_timer(chip::CoreApi& api) override {
    out_->push_back(api.now());
    return 100;
  }

 private:
  std::vector<TimeNs>* out_;
};

TEST(BoundedAsynchrony, TimersDriftButStayMillisecondScale) {
  SystemConfig cfg;
  cfg.machine.width = 4;
  cfg.machine.height = 1;
  cfg.machine.chip.num_cores = 2;
  cfg.machine.chip.clock_drift_ppm_sigma = 100.0;  // generous crystals
  System sys(cfg);

  std::vector<std::vector<TimeNs>> logs(4);
  for (std::uint16_t x = 0; x < 4; ++x) {
    auto& core = sys.machine().chip_at({x, 0}).core(1);
    core.load_program(std::make_unique<TickLogger>(&logs[x]));
    core.start();
  }
  sys.run(1000 * kMillisecond);

  // Every chip produced ~1000 ticks: rates match to within the ppm drift.
  for (const auto& log : logs) {
    EXPECT_NEAR(static_cast<double>(log.size()), 1000.0, 2.0);
  }
  // Inter-tick interval on each chip is its own constant ~1 ms.
  for (const auto& log : logs) {
    ASSERT_GT(log.size(), 100u);
    const TimeNs first_gap = log[1] - log[0];
    const TimeNs last_gap = log[log.size() - 1] - log[log.size() - 2];
    EXPECT_NEAR(static_cast<double>(first_gap), 1e6, 1e3);
    EXPECT_EQ(first_gap, last_gap) << "local period is stable";
  }
}

TEST(BoundedAsynchrony, NoGlobalClockMeansDistinctPhases) {
  SystemConfig cfg;
  cfg.machine.width = 3;
  cfg.machine.height = 1;
  cfg.machine.chip.num_cores = 2;
  System sys(cfg);
  std::vector<std::vector<TimeNs>> logs(3);
  for (std::uint16_t x = 0; x < 3; ++x) {
    auto& core = sys.machine().chip_at({x, 0}).core(1);
    core.load_program(std::make_unique<TickLogger>(&logs[x]));
    core.start();
  }
  sys.run(10 * kMillisecond);
  ASSERT_GT(logs[0].size(), 2u);
  // First tick times differ chip to chip (random phase: no global clock).
  EXPECT_FALSE(logs[0][0] == logs[1][0] && logs[1][0] == logs[2][0]);
}

TEST(System, FabricTotalsAndEnergyAccessors) {
  System sys(tiny());
  net::NetBuilder b;
  b.poisson("a", 32, 50.0);
  b.lif("b", 32);
  b.project("a", "b", neural::Connector::fixed_probability(0.2),
            neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
  ASSERT_TRUE(sys.load(test::compile(b.description())).ok);
  sys.run(50 * kMillisecond);
  EXPECT_GT(sys.fabric_totals().received, 0u);
  EXPECT_GT(sys.energy().total_j(), 0.0);
  EXPECT_FALSE(sys.apps().empty());
}

}  // namespace
}  // namespace spinn
