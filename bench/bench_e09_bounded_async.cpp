// E9 — §3.1: bounded asynchrony — "time is free running and there is no
// global synchronization ... system-wide (approximate) synchrony is just a
// side-effect of the 1ms timer interrupts running at the same rate
// throughout the system and the communication delays being negligible on
// the ms timescale."
//
// Every chip's timer runs from its own drifting clock.  We log tick trains
// across the machine for 10 s and report: tick-rate spread, the growth of
// the worst-case phase skew, and the fraction of a tick period it reaches.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "chip/core.hpp"
#include "harness.hpp"
#include "mesh/machine.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace spinn;

class TickLogger final : public chip::CoreProgram {
 public:
  explicit TickLogger(std::vector<TimeNs>* out) : out_(out) {}
  std::uint64_t on_timer(chip::CoreApi& api) override {
    out_->push_back(api.now());
    return 80;
  }

 private:
  std::vector<TimeNs>* out_;
};

}  // namespace

int main(int argc, char** argv) {
  spinn::bench::Harness h("bench_e09_bounded_async", argc, argv);
  double worst_skew_growth_us_per_s = 0.0;
  h.run("drift_sweep", [&] {
    worst_skew_growth_us_per_s = 0.0;
    std::printf("E9: bounded asynchrony — GALS timers with no global clock "
                "(§3.1, Fig. 5)\n\n");
    std::printf("%-14s %10s %12s %16s %18s %16s\n", "drift sigma", "chips",
                "ticks/chip", "rate spread", "skew growth", "10 s drift");
    std::printf("%-14s %10s %12s %16s %18s %16s\n", "(ppm)", "", "(10 s)",
                "(ppm, max-min)", "(us per second)", "(ticks apart)");

    for (const double sigma : {0.0, 20.0, 50.0, 100.0}) {
      sim::SerialEngine engine(17);
      mesh::MachineConfig mc;
      mc.width = 4;
      mc.height = 4;
      mc.chip.num_cores = 2;
      mc.chip.clock_drift_ppm_sigma = sigma;
      mesh::Machine m(engine, mc);
      sim::Simulator& sim = engine.root();

      std::vector<std::vector<TimeNs>> logs(m.num_chips());
      for (std::size_t i = 0; i < m.num_chips(); ++i) {
        const ChipCoord c = m.topology().coord_of(i);
        auto& core = m.chip_at(c).core(1);
        core.load_program(std::make_unique<TickLogger>(&logs[i]));
        core.start();
      }
      m.start_all_timers();
      sim.run_until(10 * kSecond);
      m.stop_all_timers();

      // Tick-rate spread: each chip's local period, relative to nominal
      // 1 ms.
      double min_ppm = 1e18, max_ppm = -1e18, max_ticks = 0;
      for (const auto& log : logs) {
        max_ticks = std::max(max_ticks, static_cast<double>(log.size()));
        if (log.size() < 2) continue;
        const double period = static_cast<double>(log[1] - log[0]);
        const double ppm = (1e6 / period - 1.0) * 1e6;
        min_ppm = std::min(min_ppm, ppm);
        max_ppm = std::max(max_ppm, ppm);
      }
      const double spread_ppm = max_ppm - min_ppm;

      // Phase skew: for tick index k, the spread of the k-th tick times;
      // its growth rate is the relative clock drift.
      auto skew_at = [&](std::size_t k) {
        TimeNs lo = INT64_MAX, hi = 0;
        for (const auto& log : logs) {
          if (k >= log.size()) return static_cast<TimeNs>(-1);
          lo = std::min(lo, log[k]);
          hi = std::max(hi, log[k]);
        }
        return hi - lo;
      };
      const TimeNs early = skew_at(100);   // ~0.1 s in
      const TimeNs late = skew_at(9'800);  // ~9.8 s in
      const double growth_us_per_s =
          early >= 0 && late >= 0
              ? static_cast<double>(late - early) / 1000.0 / 9.7
              : 0.0;
      const double ticks_apart = growth_us_per_s * 10.0 / 1000.0;
      worst_skew_growth_us_per_s =
          std::max(worst_skew_growth_us_per_s, growth_us_per_s);

      std::printf("%-14.0f %10zu %12.0f %16.1f %18.2f %16.2f\n", sigma,
                  m.num_chips(), max_ticks, spread_ppm, growth_us_per_s,
                  ticks_apart);
    }

    std::printf("\nTimers start at random phases and drift apart at ppm "
                "rates — there is never a global clock edge —\nyet all "
                "chips compute biological milliseconds at rates equal to "
                "within ppm, and after 10 s the\nfastest and slowest chips "
                "disagree by at most a few ticks.  Synchrony is approximate "
                "and emergent\n(§3.1): spike packets cross the machine in "
                "microseconds (E7), so on the 1 ms timescale of the\nneural "
                "model the machine behaves as if synchronised.\n");
  });
  h.metric("worst_skew_growth_us_per_s", worst_skew_growth_us_per_s,
           "us/s");
  return h.finish();
}
