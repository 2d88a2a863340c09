// Micro-benchmarks (google-benchmark) for the simulator's hot kernels: the
// delay-insensitive codecs, multicast table lookup, event-queue operations,
// neuron-slice updates, the deferred-event ring, topology routing, the
// loader and its connectivity scan, the packet path's synaptic-row lookup
// and a longrun simulation.
// These bound how large a machine/network the simulator itself can handle.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/rng_stream.hpp"
#include "core/system.hpp"
#include "harness.hpp"
#include "link/codes.hpp"
#include "mesh/topology.hpp"
#include "net/client.hpp"
#include "neural/input_ring.hpp"
#include "neural/neuron_models.hpp"
#include "neural/synapse.hpp"
#include "router/routing_table.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace spinn;

void BM_CodecRtzRoundTrip(benchmark::State& state) {
  const link::ThreeOfSixRtz code;
  std::uint8_t v = 0;
  for (auto _ : state) {
    const auto w = code.encode(v);
    benchmark::DoNotOptimize(code.decode(w));
    v = (v + 1) & 0xF;
  }
}
BENCHMARK(BM_CodecRtzRoundTrip);

void BM_CodecNrzRoundTrip(benchmark::State& state) {
  const link::TwoOfSevenNrz code;
  std::uint8_t v = 0;
  for (auto _ : state) {
    const auto w = code.encode(v);
    benchmark::DoNotOptimize(code.decode(w));
    v = (v + 1) & 0xF;
  }
}
BENCHMARK(BM_CodecNrzRoundTrip);

void BM_McTableLookup(benchmark::State& state) {
  router::MulticastTable table;
  const auto entries = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < entries; ++i) {
    table.add({static_cast<RoutingKey>(i << 11), 0xFFFFF800u,
               router::Route::to_core(1)});
  }
  Rng rng(1);
  for (auto _ : state) {
    const auto key = static_cast<RoutingKey>(rng.uniform_int(entries) << 11);
    benchmark::DoNotOptimize(table.lookup(key));
  }
}
BENCHMARK(BM_McTableLookup)->Arg(16)->Arg(128)->Arg(1024);

void BM_EventQueueSchedule(benchmark::State& state) {
  sim::EventQueue q;
  TimeNs t = 0;
  for (auto _ : state) {
    q.schedule_at(++t, [] {});
    if (q.pending() > 10000) q.clear();
  }
}
BENCHMARK(BM_EventQueueSchedule);

void BM_EventQueueChurn(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(2);
  TimeNs horizon = 0;
  for (int i = 0; i < 1000; ++i) {
    q.schedule_at(static_cast<TimeNs>(rng.uniform_int(1'000'000)), [] {});
  }
  for (auto _ : state) {
    q.step();
    horizon = q.now() + 1 + static_cast<TimeNs>(rng.uniform_int(1000));
    q.schedule_at(horizon, [] {});
  }
}
BENCHMARK(BM_EventQueueChurn);

void BM_LifSliceUpdate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  neural::LifSlice slice(n, neural::LifParams{});
  std::vector<Accum> input(n, Accum::from_double(0.5));
  std::vector<std::uint32_t> spikes;
  for (auto _ : state) {
    spikes.clear();
    slice.update(input, spikes);
    benchmark::DoNotOptimize(spikes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LifSliceUpdate)->Arg(256)->Arg(1024);

void BM_IzhSliceUpdate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  neural::IzhSlice slice(n, neural::IzhParams{});
  std::vector<Accum> input(n, Accum::from_double(3.0));
  std::vector<std::uint32_t> spikes;
  for (auto _ : state) {
    spikes.clear();
    slice.update(input, spikes);
    benchmark::DoNotOptimize(spikes.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IzhSliceUpdate)->Arg(256)->Arg(1024);

void BM_InputRingAddDrain(benchmark::State& state) {
  neural::InputRing ring(256);
  Rng rng(3);
  std::uint32_t tick = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      ring.add(tick, static_cast<std::uint32_t>(rng.uniform_int(256)),
               static_cast<std::uint8_t>(1 + rng.uniform_int(15)),
               Accum::from_double(0.1));
    }
    benchmark::DoNotOptimize(ring.drain(tick));
    ++tick;
  }
}
BENCHMARK(BM_InputRingAddDrain);

void BM_TopologyRoute(benchmark::State& state) {
  const mesh::Topology topo(48, 48);
  Rng rng(4);
  for (auto _ : state) {
    const ChipCoord a{static_cast<std::uint16_t>(rng.uniform_int(48)),
                      static_cast<std::uint16_t>(rng.uniform_int(48))};
    const ChipCoord b{static_cast<std::uint16_t>(rng.uniform_int(48)),
                      static_cast<std::uint16_t>(rng.uniform_int(48))};
    benchmark::DoNotOptimize(topo.route(a, b));
  }
}
BENCHMARK(BM_TopologyRoute);

void BM_RngPoisson(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.poisson(3.0));
  }
}
BENCHMARK(BM_RngPoisson);

/// The wire benchmark's `longrun` net: 1000 Poisson sources driving 3000
/// LIF and 2000 Izhikevich neurons through fixed-probability projections,
/// on a 6x6 machine with 4 cores per chip.
neural::Network longrun_net() {
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
  return bench::compile(b.description());
}

/// One System::load of the longrun net: placement, routing, the
/// fixed-probability scan and the row stores.  Items are synapses.
void BM_LoadLongrunNet(benchmark::State& state) {
  SystemConfig cfg;
  cfg.machine.width = 6;
  cfg.machine.height = 6;
  cfg.machine.chip.num_cores = 4;
  cfg.machine.seed = 1;
  const neural::Network net = longrun_net();
  std::uint64_t synapses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sys = std::make_unique<System>(cfg);
    state.ResumeTiming();
    synapses += sys->load(net).total_synapses;
    state.PauseTiming();
    sys.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(synapses));
}
BENCHMARK(BM_LoadLongrunNet)->Unit(benchmark::kMillisecond);

/// Runs of 64 chance(p) candidates, the wire longrun's slice width, as the
/// loader scans them: one chance_failures() per success or run end.
/// Returns the successes.
template <class Gen>
std::uint64_t scan_runs(Gen& gen, const Chance& chance, std::uint64_t runs) {
  constexpr std::uint64_t kRun = 64;
  std::uint64_t successes = 0;
  for (std::uint64_t r = 0; r < runs; ++r) {
    for (std::uint64_t j = 0;; ++j) {
      j += gen.chance_failures(chance, kRun - j);
      if (j >= kRun) break;
      ++successes;
    }
  }
  return successes;
}

/// The loader's connectivity scan alone: time per draw (one per candidate)
/// from Rng (stream:0) or RngStream (stream:1), at p = 1 / one_in.  The
/// stream lives across iterations, so its setup is not timed.
void BM_ConnectivityScan(benchmark::State& state) {
  const bool use_stream = state.range(0) != 0;
  const Chance chance(1.0 / static_cast<double>(state.range(1)));
  constexpr std::uint64_t kRuns = 1024;
  if (use_stream && !RngStream::available()) {
    state.SkipWithError("no vector kernel on this CPU");
    return;
  }
  Rng rng(8);
  std::unique_ptr<RngStream> stream;
  if (use_stream) stream = std::make_unique<RngStream>(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(use_stream ? scan_runs(*stream, chance, kRuns)
                                        : scan_runs(rng, chance, kRuns));
  }
  // Time per draw, shown with its SI prefix (2.1ns).
  state.counters["per_draw"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kRuns * 64),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ConnectivityScan)
    ->ArgNames({"stream", "one_in"})
    ->ArgsProduct({{0, 1}, {50, 200}});

/// 10 bio ms of the longrun net on the serial engine, loaded outside the
/// timed region: the event queue, the packet path and the neuron kernels.
/// Counters: host ns per executed event, and events per bio ms (a count of
/// the simulated work, which only a change to the model moves).
void BM_RunLongrunNet(benchmark::State& state) {
  SystemConfig cfg;
  cfg.machine.width = 6;
  cfg.machine.height = 6;
  cfg.machine.chip.num_cores = 4;
  cfg.machine.seed = 1;
  const neural::Network net = longrun_net();
  constexpr TimeNs kRun = 10 * kMillisecond;
  std::uint64_t events = 0;
  std::int64_t run_ns = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto sys = std::make_unique<System>(cfg);
    sys->load(net);
    const std::uint64_t e0 = sys->engine().executed();
    const std::int64_t t0 = WallClock::now_ns();
    state.ResumeTiming();
    sys->run(kRun);
    state.PauseTiming();
    run_ns += WallClock::now_ns() - t0;
    events += sys->engine().executed() - e0;
    sys.reset();
    state.ResumeTiming();
  }
  const auto n = static_cast<double>(events);
  state.counters["ns_per_event"] = static_cast<double>(run_ns) / n;
  state.counters["events_per_bio_ms"] =
      n / (static_cast<double>(state.iterations()) *
           static_cast<double>(kRun / kMillisecond));
}
BENCHMARK(BM_RunLongrunNet)->Unit(benchmark::kMillisecond);

/// RowStore::find on a core holding rows from 24 source slices of 256
/// neurons, about half of whose neurons have a row of 4 synapses there.
/// Arg 1 looks up keys with a row, arg 0 keys without one (the packet
/// path's miss: a spike for no neuron on this core), in shuffled order.
/// One store fits in cache, so this measures the lookup's instruction path,
/// not the cache misses across a machine's stores that dominate a run.
void BM_RowStoreFind(benchmark::State& state) {
  Rng rng(6);
  std::vector<neural::StagedSynapse> staged;
  std::vector<RoutingKey> hits;
  std::vector<RoutingKey> misses;
  for (RoutingKey slice = 0; slice < 24; ++slice) {
    for (RoutingKey n = 0; n < 256; ++n) {
      const RoutingKey key = (slice << kNeuronKeyBits) + n;
      if (!rng.chance(0.5)) {
        misses.push_back(key);
        continue;
      }
      hits.push_back(key);
      for (int k = 0; k < 4; ++k) staged.push_back({key, neural::Synapse{}});
    }
    // Slices that send nothing here.
    misses.push_back(((slice + 100) << kNeuronKeyBits) + 7);
  }
  neural::RowStore store(staged);
  std::vector<RoutingKey>& keys = state.range(0) == 1 ? hits : misses;
  std::shuffle(keys.begin(), keys.end(), rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const neural::SynapticRow row = store.find(keys[i]);
    benchmark::DoNotOptimize(row);
    if (++i == keys.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowStoreFind)->ArgName("hit")->Arg(1)->Arg(0);

}  // namespace
