// E12 — sharded-engine parallel scaling.
//
// The paper's machine is a GALS system: locally-synchronous chips behind an
// asynchronous, bounded-latency fabric (§3, §4).  The sharded engine
// exploits exactly that structure — per-shard event queues synchronised by a
// conservative window equal to the minimum inter-shard link latency — so the
// simulator of a massively-parallel machine is itself massively parallel.
//
// This bench sweeps worker threads 1 -> 8 over a large-mesh spiking network
// and reports events/second and speedup vs the serial reference engine.
// Every sharded row opens the same windows: the 1-thread row (`sharded_1t`)
// runs each window's shard slices on the calling thread alone, so it prices
// the window bookkeeping without a worker or a barrier.  The
// link flight time is set to 1 us (a board-to-board figure rather than the
// 10 ns on-PCB default) to give the conservative window realistic room; the
// results are bit-identical either way, only wall-clock changes.  Sanity:
// every configuration's spike count is checked against the serial run —
// a mismatch marks the bench output and the equality metric.
//
// Note: speedup is only meaningful on a machine with that much hardware
// parallelism; `hw_threads` is reported alongside so the trajectory can be
// read honestly.
//
// The `events` column counts the events the engine executed, not the work
// it simulated: a core's handler completion is an event only while work
// waits, and one event delivers a routed packet to all its local cores.
// A kernel change can therefore lower events and events/s for the same
// simulated run; compare points across such a change by wall time.
//
// The second table runs the wire benchmark's `longrun` session of its seed
// 1 (100 bio ms) serial and on 4 shards at 1, 2 and 4 threads, and counts
// how evenly the shards share it.  Every window waits for its busiest
// worker, so `busiest` (that worker's events, summed over windows) bounds
// the run, and efficiency = events / (threads x busiest) is the share of
// the threads' window time that did work.  The 4s1t row opens the same
// windows as 4s2t and 4s4t, and its one thread is every window's busiest
// worker (efficiency 1).  These counts repeat exactly on any host; the
// wall times do not, so `run(ms)` is the median System::run of a section's
// timed reps and `IQR(ms)` their interquartile range.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "core/system.hpp"
#include "harness.hpp"
#include "net/client.hpp"
#include "server/spec.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/stats.hpp"

namespace {

using namespace spinn;

constexpr TimeNs kRunTime = 10 * kMillisecond;

SystemConfig scenario_config(const sim::EngineConfig& engine) {
  SystemConfig cfg;
  cfg.machine.width = 12;
  cfg.machine.height = 12;
  cfg.machine.chip.num_cores = 4;
  cfg.machine.seed = 12;
  // Board-level link latency: the conservative parallel window.
  cfg.machine.chip.router.port.flight_ns = 1000;
  cfg.mapper.neurons_per_core = 256;
  cfg.engine = engine;
  return cfg;
}

struct RunResult {
  std::uint64_t spikes = 0;
  std::uint64_t events = 0;
};

RunResult run_scenario(const sim::EngineConfig& engine) {
  System sys(scenario_config(engine));
  // ~18k LIF neurons driven by 6k Poisson sources, sparse random fan-out:
  // the per-tick neuron updates are the parallel compute, the spike traffic
  // is the cross-shard communication.
  net::NetBuilder b;
  b.poisson("noise", 6000, 30.0);
  b.lif("exc", 18000);
  b.project("noise", "exc", neural::Connector::fixed_probability(0.0045),
            neural::ValueDist::uniform(4.0, 8.0),
            neural::ValueDist::fixed(1.0));
  b.project("exc", "exc", neural::Connector::fixed_probability(0.0005),
            neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
  if (!sys.load(bench::compile(b.description())).ok) return {};
  sys.run(kRunTime);
  return RunResult{sys.spikes().count(), sys.engine().executed()};
}

sim::EngineConfig sharded(std::uint32_t threads) {
  sim::EngineConfig ec;
  ec.kind = sim::EngineKind::Sharded;
  ec.shards = 8;
  ec.threads = threads;
  return ec;
}

/// The wire benchmark's `longrun` net: 1000 Poisson sources driving 3000
/// LIF and 2000 Izhikevich neurons through four fixed-probability
/// projections, on 6x6 chips of 4 cores with 1 us link flights, under the
/// session seed its seed 1 derives.
server::SessionSpec longrun_spec(const sim::EngineConfig& engine) {
  net::NetBuilder b;
  b.poisson("noise", 1000, 30.0);
  b.lif("exc", 3000);
  b.izhikevich("izh", 2000);
  const auto w = neural::ValueDist::uniform(2.0, 6.0);
  const auto d = neural::ValueDist::uniform(1.0, 8.0);
  b.project("noise", "exc", neural::Connector::fixed_probability(0.02), w, d);
  b.project("noise", "izh", neural::Connector::fixed_probability(0.02), w, d);
  b.project("exc", "izh", neural::Connector::fixed_probability(0.005), w, d);
  b.project("izh", "exc", neural::Connector::fixed_probability(0.005), w, d,
            /*inhibitory=*/true);
  server::SessionSpec spec;
  spec.width = 6;
  spec.height = 6;
  spec.cores_per_chip = 4;
  spec.link_flight_ns = 1000;
  spec.seed = 57798645;
  spec.engine = engine.kind;
  spec.shards = engine.shards;
  spec.threads = engine.threads;
  spec.net =
      std::make_shared<const neural::NetworkDescription>(b.description());
  return spec;
}

struct LongrunResult {
  std::uint64_t spikes = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t busiest = 0;
  std::vector<std::uint64_t> shard_events;
  double run_ms = 0.0;  // System::run alone, not the build and load
};

LongrunResult run_longrun(const sim::EngineConfig& engine) {
  const server::SessionSpec spec = longrun_spec(engine);
  System sys(server::system_config(spec));
  if (!sys.load(server::build_network(spec)).ok) return {};
  const std::int64_t t0 = WallClock::now_ns();
  sys.run(100 * kMillisecond);
  LongrunResult r;
  r.run_ms = static_cast<double>(WallClock::now_ns() - t0) / 1e6;
  r.spikes = sys.spikes().count();
  r.events = sys.engine().executed();
  if (const auto* sharded =
          dynamic_cast<const sim::ShardedSimulator*>(&sys.engine())) {
    r.windows = sharded->windows_opened();
    r.busiest = sharded->busiest_worker_events();
    for (std::size_t s = 0; s < sharded->num_shards(); ++s) {
      r.shard_events.push_back(sharded->shard_executed(s));
    }
  }
  return r;
}

/// The median and interquartile range of a section's timed run(ms).
struct Spread {
  double median = 0.0;
  std::string iqr;
};

Spread spread(const std::vector<double>& ms) {
  char iqr[32];
  std::snprintf(iqr, sizeof iqr, "%.1f-%.1f", sim::percentile(ms, 0.25),
                sim::percentile(ms, 0.75));
  return Spread{sim::percentile(ms, 0.5), iqr};
}

void longrun_table(spinn::bench::Harness& h) {
  std::printf("\nwire longrun, seed 1, 100 bio ms: serial and 4 shards\n");
  std::printf("%-12s %10s %13s %10s %8s %10s %-36s %6s\n", "engine",
              "run(ms)", "IQR(ms)", "events", "windows", "busiest",
              "per-shard events", "eff");
  LongrunResult serial;
  std::vector<double> serial_ms;
  h.run("longrun_serial", [&] {
    serial = run_longrun(sim::EngineConfig{});
    if (!h.warming_up()) serial_ms.push_back(serial.run_ms);
  });
  const Spread serial_spread = spread(serial_ms);
  std::printf("%-12s %10.1f %13s %10llu %8s %10s %-36s %6s\n", "serial",
              serial_spread.median, serial_spread.iqr.c_str(),
              static_cast<unsigned long long>(serial.events), "-", "-", "-",
              "-");
  bool all_equal = true;
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    sim::EngineConfig ec;
    ec.kind = sim::EngineKind::Sharded;
    ec.shards = 4;
    ec.threads = threads;
    const std::string label = "4s" + std::to_string(threads) + "t";
    const std::string section = "longrun_" + label;
    LongrunResult r;
    std::vector<double> run_ms;
    h.run(section, [&] {
      r = run_longrun(ec);
      if (!h.warming_up()) run_ms.push_back(r.run_ms);
    });
    const Spread run_spread = spread(run_ms);
    std::string shards;
    for (const std::uint64_t e : r.shard_events) {
      if (!shards.empty()) shards += ' ';
      shards += std::to_string(e);
    }
    // A run that opened no window has no busiest worker.
    const double eff =
        r.busiest > 0 ? static_cast<double>(r.events) /
                            (static_cast<double>(threads) *
                             static_cast<double>(r.busiest))
                      : 1.0;
    const bool equal = r.spikes == serial.spikes && r.events == serial.events;
    all_equal = all_equal && equal;
    std::printf("%-12s %10.1f %13s %10llu %8llu %10llu %-36s %6.3f%s\n",
                label.c_str(), run_spread.median, run_spread.iqr.c_str(),
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.busiest), shards.c_str(),
                eff, equal ? "" : "  MISMATCH vs serial!");
    h.metric(section + "_busiest_events", static_cast<double>(r.busiest),
             "events");
    h.metric(section + "_efficiency", eff, "ratio");
    h.metric(section + "_run_ms", run_spread.median, "ms");
  }
  h.metric("longrun_serial_run_ms", serial_spread.median, "ms");
  h.metric("longrun_equality", all_equal ? 1.0 : 0.0, "bool");
}

}  // namespace

int main(int argc, char** argv) {
  spinn::bench::Harness h("bench_e12_parallel_scaling", argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("E12: sharded-engine scaling on a 12x12 mesh (%u hw threads)\n\n",
              hw);

  RunResult serial{};
  double serial_ms = 0.0;
  h.run("serial", [&] { serial = run_scenario(sim::EngineConfig{}); });
  serial_ms = h.section_ms("serial");
  std::printf("%-12s %14s %14s %12s %10s %8s\n", "engine", "events",
              "events/s", "spikes", "time(ms)", "speedup");
  std::printf("%-12s %14llu %14.0f %12llu %10.1f %8s\n", "serial",
              static_cast<unsigned long long>(serial.events),
              serial_ms > 0.0 ? 1e3 * static_cast<double>(serial.events) /
                                    serial_ms
                              : 0.0,
              static_cast<unsigned long long>(serial.spikes), serial_ms,
              "1.00x");

  bool all_equal = true;
  double speedup_at_8 = 0.0;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    char section[32];
    std::snprintf(section, sizeof section, "sharded_%ut", threads);
    RunResult r{};
    h.run(section, [&] { r = run_scenario(sharded(threads)); });
    const double ms = h.section_ms(section);
    const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
    if (threads == 8) speedup_at_8 = speedup;
    const bool equal = r.spikes == serial.spikes;
    all_equal = all_equal && equal;
    std::printf("%-12s %14llu %14.0f %12llu %10.1f %7.2fx%s\n", section,
                static_cast<unsigned long long>(r.events),
                ms > 0.0 ? 1e3 * static_cast<double>(r.events) / ms : 0.0,
                static_cast<unsigned long long>(r.spikes), ms, speedup,
                equal ? "" : "  SPIKE MISMATCH vs serial!");
  }
  std::printf("\n8 shards, conservative window = 1 us link flight; results "
              "bit-identical to serial: %s.\n",
              all_equal ? "yes" : "NO");
  if (hw < 8) {
    std::printf("(this host has %u hw thread(s): speedup is barrier overhead "
                "only, not a scaling measurement)\n", hw);
  }

  h.metric("hw_threads", static_cast<double>(hw), "threads");
  h.metric("speedup_8_threads", speedup_at_8, "x");
  h.metric("serial_events_per_sec",
           serial_ms > 0.0
               ? 1e3 * static_cast<double>(serial.events) / serial_ms
               : 0.0,
           "events/s");
  h.metric("spike_equality", all_equal ? 1.0 : 0.0, "bool");
  longrun_table(h);
  return h.finish();
}
