// Determinism-equivalence suite for the sharded parallel engine.
//
// The contract (ISSUE 2 / ROADMAP): the sharded engine is an *execution
// strategy*, not a different model.  Every scenario must produce bit-
// identical observable results — spike traces, fabric counters, per-app
// event counts, final membrane state — on the serial reference and on the
// sharded engine at 1, 2 and 8 shards, across seeds, independent of worker
// thread count.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "net/client.hpp"
#include "network_util.hpp"
#include "obs/registry.hpp"
#include "server/spec.hpp"
#include "sim/sharded_simulator.hpp"

namespace spinn {
namespace {

/// Everything observable about a finished run, cheap to compare and to
/// report on mismatch.
struct Fingerprint {
  std::vector<std::pair<TimeNs, RoutingKey>> spikes;
  std::vector<std::uint64_t> counters;
  std::vector<std::int32_t> membranes;  // raw fixed-point, exact
  TimeNs end_time = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint(System& sys) {
  Fingerprint fp;
  fp.end_time = sys.now();
  for (const auto& e : sys.spikes().events()) {
    fp.spikes.emplace_back(e.time, e.key);
  }
  const auto totals = sys.fabric_totals();
  fp.counters = {totals.received,           totals.forwarded,
                 totals.delivered_local,    totals.default_routed,
                 totals.emergency_first_leg, totals.emergency_second_leg,
                 totals.dropped};
  for (const neural::NeuronApp* app : sys.apps()) {
    fp.counters.push_back(app->spikes_emitted());
    fp.counters.push_back(app->rows_processed());
    fp.counters.push_back(app->synaptic_events());
    fp.counters.push_back(app->plastic_writebacks());
    if (const neural::LifSlice* lif = app->lif()) {
      for (std::uint32_t i = 0; i < lif->size(); ++i) {
        fp.membranes.push_back(lif->membrane(i).raw());
      }
    }
    if (const neural::IzhSlice* izh = app->izh()) {
      for (std::uint32_t i = 0; i < izh->size(); ++i) {
        fp.membranes.push_back(izh->membrane(i).raw());
      }
    }
  }
  for (std::uint16_t x = 0; x < sys.machine().width(); ++x) {
    for (std::uint16_t y = 0; y < sys.machine().height(); ++y) {
      const auto& chip = sys.machine().chip_at({x, y});
      fp.counters.push_back(
          static_cast<std::uint64_t>(chip.total_core_busy_ns()));
      fp.counters.push_back(chip.total_overruns());
    }
  }
  return fp;
}

using Scenario = void (*)(System&);

struct Case {
  const char* name;
  std::uint16_t width, height;
  CoreIndex cores;
  std::uint32_t neurons_per_core;
  bool scatter;
  Scenario scenario;
  bool lossy_boot = false;
};

SystemConfig make_config(const Case& c, std::uint64_t seed,
                         const sim::EngineConfig& engine) {
  SystemConfig cfg;
  cfg.machine.width = c.width;
  cfg.machine.height = c.height;
  cfg.machine.chip.num_cores = c.cores;
  cfg.machine.seed = seed;
  cfg.mapper.neurons_per_core = c.neurons_per_core;
  cfg.mapper.scatter = c.scatter;
  cfg.engine = engine;
  if (c.lossy_boot) {
    // Order-sensitive boot: every lost block is an RNG draw made in packet
    // handling order, so any engine-dependent event ordering during the
    // flood-fill shows up as a different boot outcome.
    cfg.boot.block_loss_prob = 0.05;
    cfg.boot.redundancy = 2;
    cfg.machine.chip.core_fail_prob = 0.02;
  }
  return cfg;
}

// ---- scenarios -------------------------------------------------------------

void scenario_spike_chain(System& sys) {
  net::NetBuilder b;
  b.spike_source("src", {{2, 8}, {5}});
  b.lif("dst", 4);
  b.project("src", "dst", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(30.0), neural::ValueDist::fixed(1.0));
  ASSERT_TRUE(sys.load(test::compile(b.description())).ok);
  sys.run(20 * kMillisecond);
}

void scenario_scatter_poisson(System& sys) {
  net::NetBuilder b;
  b.poisson("src", 96, 80.0).record = true;
  b.lif("dst", 96);
  b.project("src", "dst", neural::Connector::fixed_probability(0.25),
            neural::ValueDist::uniform(3.0, 7.0),
            neural::ValueDist::fixed(1.0));
  ASSERT_TRUE(sys.load(test::compile(b.description())).ok);
  sys.run(60 * kMillisecond);
}

void scenario_stdp(System& sys) {
  net::NetBuilder b;
  b.poisson("src", 48, 60.0);
  b.lif("dst", 48);
  b.project_plastic("src", "dst", neural::Connector::fixed_probability(0.3),
                    neural::ValueDist::fixed(12.0),
                    neural::ValueDist::fixed(1.0), neural::StdpParams{});
  ASSERT_TRUE(sys.load(test::compile(b.description())).ok);
  sys.run(50 * kMillisecond);
}

void scenario_booted_machine(System& sys) {
  const auto report = sys.boot();
  ASSERT_GT(report.chips_alive, 0u);
  net::NetBuilder b;
  b.poisson("noise", 64, 40.0);
  b.lif("exc", 128);
  b.project("noise", "exc", neural::Connector::fixed_probability(0.2),
            neural::ValueDist::uniform(4.0, 8.0),
            neural::ValueDist::fixed(1.0));
  ASSERT_TRUE(sys.load(test::compile(b.description())).ok);
  sys.run(40 * kMillisecond);
}

void scenario_fault_injection(System& sys) {
  net::NetBuilder b;
  b.poisson("src", 64, 100.0);
  b.lif("dst", 64);
  b.project("src", "dst", neural::Connector::fixed_probability(0.3),
            neural::ValueDist::fixed(5.0), neural::ValueDist::fixed(1.0));
  ASSERT_TRUE(sys.load(test::compile(b.description())).ok);
  sys.run(20 * kMillisecond);
  sys.machine().fail_link({0, 0}, LinkDir::East);
  sys.run(20 * kMillisecond);
  sys.machine().repair_link({0, 0}, LinkDir::East);
  sys.run(20 * kMillisecond);
}

const Case kCases[] = {
    {"spike_chain", 2, 2, 6, 64, false, scenario_spike_chain},
    {"scatter_poisson", 3, 3, 6, 32, true, scenario_scatter_poisson},
    {"stdp", 2, 2, 6, 32, true, scenario_stdp},
    {"booted_machine", 4, 4, 6, 64, false, scenario_booted_machine},
    {"lossy_boot", 4, 4, 6, 64, true, scenario_booted_machine,
     /*lossy_boot=*/true},
    {"fault_injection", 3, 3, 6, 32, true, scenario_fault_injection},
};

Fingerprint run_case(const Case& c, std::uint64_t seed,
                     const sim::EngineConfig& engine) {
  System sys(make_config(c, seed, engine));
  c.scenario(sys);
  return fingerprint(sys);
}

sim::EngineConfig serial_engine() { return sim::EngineConfig{}; }

sim::EngineConfig sharded_engine(std::uint32_t shards,
                                 std::uint32_t threads = 0) {
  sim::EngineConfig ec;
  ec.kind = sim::EngineKind::Sharded;
  ec.shards = shards;
  ec.threads = threads;
  return ec;
}

// ---- the equivalence matrix ------------------------------------------------

class ShardedEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(ShardedEquivalence, BitIdenticalToSerialAt1_2_8Shards) {
  const Case& c = kCases[std::get<0>(GetParam())];
  const std::uint64_t seed = std::get<1>(GetParam());
  SCOPED_TRACE(std::string(c.name) + " seed=" + std::to_string(seed));

  const Fingerprint reference = run_case(c, seed, serial_engine());
  ASSERT_FALSE(reference.spikes.empty())
      << "scenario must produce spikes or the comparison is vacuous";

  for (const std::uint32_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    // threads=2 splits each window between the coordinator and a worker
    // (at 2 and 8 shards) even on a 1-core host; thread count is a
    // wall-clock knob only, and dedicated tests below sweep it.
    const Fingerprint sharded =
        run_case(c, seed, sharded_engine(shards, /*threads=*/2));
    EXPECT_EQ(reference.spikes, sharded.spikes);
    EXPECT_EQ(reference.counters, sharded.counters);
    EXPECT_EQ(reference.membranes, sharded.membranes);
    EXPECT_EQ(reference.end_time, sharded.end_time);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ShardedEquivalence,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kCases)),
                       ::testing::Values(1u, 42u, 20260726u)),
    [](const ::testing::TestParamInfo<ShardedEquivalence::ParamType>& info) {
      return std::string(kCases[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

const Case& case_named(const char* name) {
  for (const Case& c : kCases) {
    if (std::string(c.name) == name) return c;
  }
  ADD_FAILURE() << "unknown case " << name;
  return kCases[0];
}

// Thread count is a wall-clock knob, never a results knob, and never a
// windows knob: the link latency bounds a window, so one thread opens the
// same windows as many and runs every shard's slice of them itself.
TEST(ShardedEquivalence, ThreadCountDoesNotAffectResults) {
  // scatter_poisson: heaviest cross-shard traffic.
  const Case& c = case_named("scatter_poisson");
  struct Run {
    Fingerprint fp;
    std::uint64_t windows = 0, busiest = 0, executed = 0;
  };
  const auto run = [&](std::uint32_t threads) {
    System sys(make_config(c, 7u, sharded_engine(8, threads)));
    c.scenario(sys);
    const auto& engine =
        dynamic_cast<const sim::ShardedSimulator&>(sys.engine());
    return Run{fingerprint(sys), engine.windows_opened(),
               engine.busiest_worker_events(), engine.executed()};
  };
  const Run one = run(1);
  const Run two = run(2);
  const Run many = run(0);
  EXPECT_EQ(one.fp, two.fp);
  EXPECT_EQ(one.fp, many.fp);
  EXPECT_GT(one.windows, 0u) << "one thread ran the span on the merge";
  EXPECT_EQ(one.windows, two.windows);
  EXPECT_EQ(one.windows, many.windows);
  EXPECT_EQ(one.busiest, one.executed)
      << "one thread is every window's busiest worker";
}

// The window histogram's count is the engine's window count: a scrape
// reads how many windows ran from `sim.window_wall_ns.count`.
TEST(ShardedEquivalence, WindowHistogramCountsEveryWindow) {
  const Case& c = case_named("scatter_poisson");
  const obs::Histogram& windows = obs::Registry::global().histogram(
      "sim.window_wall_ns", 0, 100'000'000, 1000);
  System sys(make_config(c, 5u, sharded_engine(4, 2)));
  const std::uint64_t before = windows.count();
  c.scenario(sys);
  const auto& engine =
      dynamic_cast<const sim::ShardedSimulator&>(sys.engine());
  ASSERT_GT(engine.windows_opened(), 0u);
  EXPECT_EQ(windows.count() - before, engine.windows_opened());
}

// One shard has no cross-shard send to bound a window, so while no root
// event is pending each System::run span runs in a single window, and the
// run stays bit-identical to serial.
TEST(ShardedEquivalence, OneShardRunsASpanInOneWindow) {
  const Case& c = case_named("scatter_poisson");
  const auto drive = [&](System& sys) {
    c.scenario(sys);  // load, then one System::run
    sys.run(10 * kMillisecond);
    sys.run(10 * kMillisecond);
  };

  System serial(make_config(c, 3u, serial_engine()));
  drive(serial);
  const Fingerprint reference = fingerprint(serial);
  ASSERT_FALSE(reference.spikes.empty());

  System sharded(make_config(c, 3u, sharded_engine(1)));
  drive(sharded);
  EXPECT_EQ(reference, fingerprint(sharded));
  const auto& engine =
      dynamic_cast<const sim::ShardedSimulator&>(sharded.engine());
  EXPECT_EQ(engine.windows_opened(), 3u);
  EXPECT_EQ(engine.busiest_worker_events(), engine.executed());
}

// Several shards with no lookahead have no window: a cross-shard send may
// land at its own instant.  Every event runs on the merge, in the order a
// standalone Simulator runs the same events.
TEST(ShardedEquivalence, UnconstrainedShardsRunOnTheMerge) {
  using Log = std::vector<std::pair<TimeNs, sim::ActorId>>;
  struct Node {
    sim::Simulator* ctx = nullptr;
    sim::ActorId id = 0;
    Node* peer = nullptr;
    Log* log = nullptr;
    // Hand a hit to the peer 0-2 ns later, and log a local echo 1 ns later
    // (same-instant ties with the peer's events included).
    void hit(int left) {
      log->emplace_back(ctx->now(), id);
      if (left == 0) return;
      Node* to = peer;
      ctx->handoff(left % 3, to->id, [to, left] { to->hit(left - 1); });
      ctx->after(1, [this] { log->emplace_back(ctx->now(), id); });
    }
  };
  // Two actors trading 40 hits from t = 5 ns, run to 1 us.
  const auto ping_pong = [](sim::Simulator& a, sim::Simulator& b,
                            const auto& run_until) {
    Log log;
    Node nodes[2] = {{&a, 1, nullptr, &log}, {&b, 2, nullptr, &log}};
    nodes[0].peer = &nodes[1];
    nodes[1].peer = &nodes[0];
    for (Node& n : nodes) {
      Node* self = &n;
      n.ctx->at_as(5, n.id, [self] { self->hit(40); });
    }
    run_until(TimeNs{1000});
    return log;
  };

  sim::Simulator standalone(1);
  const Log reference = ping_pong(
      standalone, standalone, [&](TimeNs t) { standalone.run_until(t); });
  ASSERT_GT(reference.size(), 80u);

  sim::ShardedSimulator engine(1, /*shards=*/2, /*threads=*/2);
  engine.map_actors(3);  // actor 1 on shard 0, actor 2 on shard 1
  ASSERT_NE(engine.context_of(1).shard(), engine.context_of(2).shard());
  const Log log =
      ping_pong(engine.context_of(1), engine.context_of(2),
                [&](TimeNs t) { engine.run_until(t); });
  EXPECT_EQ(engine.lookahead(), 0);
  EXPECT_EQ(engine.windows_opened(), 0u);
  EXPECT_EQ(log, reference);
  EXPECT_EQ(engine.executed(), standalone.queue().executed());
}

// The balance counts a shard-balance change claims on: the events of each
// window's busiest worker, summed, and each shard's executed events.  They
// count the partition, not the host, so a rerun repeats them exactly.
TEST(ShardedEquivalence, BalanceCountsRepeatExactly) {
  const Case& c = case_named("scatter_poisson");
  std::uint64_t first_busiest = 0;
  std::vector<std::uint64_t> first_shards;
  for (int run = 0; run < 2; ++run) {
    System sys(make_config(c, 5u, sharded_engine(4, /*threads=*/2)));
    c.scenario(sys);
    const auto* engine =
        dynamic_cast<const sim::ShardedSimulator*>(&sys.engine());
    ASSERT_NE(engine, nullptr);
    ASSERT_GT(engine->windows_opened(), 0u);
    std::vector<std::uint64_t> shards;
    std::uint64_t sum = 0;
    for (std::size_t s = 0; s < engine->num_shards(); ++s) {
      shards.push_back(engine->shard_executed(s));
      sum += shards.back();
    }
    EXPECT_EQ(sum, engine->executed());
    const std::uint64_t busiest = engine->busiest_worker_events();
    EXPECT_GT(busiest, 0u);
    EXPECT_LE(busiest, engine->executed());
    if (run == 0) {
      first_busiest = busiest;
      first_shards = shards;
    } else {
      EXPECT_EQ(busiest, first_busiest);
      EXPECT_EQ(shards, first_shards);
    }
  }
}

// A pending far-future root-actor event (the signature of an abandoned
// boot's probe timer) must not force the sequential merge for a whole
// run_until span: windows are bounded below the root event's `when`, so the
// run stays parallel — and still bit-identical to serial.
TEST(ShardedEquivalence, FarFutureRootEventKeepsWindowsOpen) {
  const Case& c = case_named("scatter_poisson");
  const std::uint64_t seed = 13u;

  const auto with_probe = [&](System& sys) {
    // A root no-op 10 simulated seconds out, scheduled before the run like
    // a leftover protocol timer.
    sys.simulator().at(sys.now() + 10 * kSecond, [] {});
    c.scenario(sys);
  };

  System serial(make_config(c, seed, serial_engine()));
  with_probe(serial);
  const Fingerprint reference = fingerprint(serial);
  ASSERT_FALSE(reference.spikes.empty());

  System sharded(make_config(c, seed, sharded_engine(4, /*threads=*/2)));
  with_probe(sharded);
  EXPECT_EQ(reference, fingerprint(sharded));

  auto* engine = dynamic_cast<sim::ShardedSimulator*>(&sharded.engine());
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->windows_opened(), 0u)
      << "a far-future root event forced the whole run onto the "
         "sequential merge";
}

// A root event landing *inside* the run span engages the merge exactly at
// its instant (it mutates machine state across chips) and hands back to
// parallel windows after — results stay bit-identical.
TEST(ShardedEquivalence, MidRunRootEventStaysSequentialAndIdentical) {
  const Case& c = case_named("scatter_poisson");
  const std::uint64_t seed = 21u;

  const auto with_fault_timer = [&](System& sys) {
    // Host-side (root actor) code reaching across chips mid-run: fail a
    // link at t=20 ms, repair it at t=40 ms.
    sys.simulator().at(20 * kMillisecond,
                       [&sys] { sys.machine().fail_link({0, 0}, LinkDir::East); });
    sys.simulator().at(40 * kMillisecond, [&sys] {
      sys.machine().repair_link({0, 0}, LinkDir::East);
    });
    c.scenario(sys);
  };

  System serial(make_config(c, seed, serial_engine()));
  with_fault_timer(serial);
  const Fingerprint reference = fingerprint(serial);
  ASSERT_FALSE(reference.spikes.empty());

  for (const std::uint32_t shards : {2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    System sharded(make_config(c, seed, sharded_engine(shards, 2)));
    with_fault_timer(sharded);
    EXPECT_EQ(reference, fingerprint(sharded));
  }
}

// Engine reuse: a reset engine drives a new scenario bit-identically to a
// freshly-constructed one (the server's EnginePool contract, pinned here at
// the engine level).
TEST(ShardedEquivalence, ResetEngineIsBitIdenticalToFresh) {
  const Case& first = case_named("spike_chain");
  const Case& second = case_named("scatter_poisson");
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "serial");
    const sim::EngineConfig ec =
        sharded ? sharded_engine(4, 2) : serial_engine();

    const Fingerprint fresh = run_case(second, 31u, ec);

    auto engine = sim::make_engine(ec, 99u);
    {
      // Drive a full unrelated scenario through the engine first...
      System warmup(make_config(first, 99u, ec), *engine);
      first.scenario(warmup);
    }
    // ...then rebuild the target scenario on the same (reset) engine.
    System sys(make_config(second, 31u, ec), *engine);
    second.scenario(sys);
    EXPECT_EQ(fresh, fingerprint(sys));
  }
}

// Re-running the same sharded configuration is bit-stable (no hidden
// dependence on thread scheduling).
TEST(ShardedEquivalence, ShardedRunsAreReproducible) {
  // fault_injection: the only scenario mutating machine state between runs.
  const Case& c = case_named("fault_injection");
  const Fingerprint a = run_case(c, 99u, sharded_engine(8));
  const Fingerprint b = run_case(c, 99u, sharded_engine(8));
  EXPECT_EQ(a, b);
}

// ---- pinned longrun streams -------------------------------------------------

/// The wire benchmark's `longrun` net: 1000 Poisson sources driving 3000 LIF
/// and 2000 Izhikevich neurons through four fixed-probability projections,
/// on 6x6 chips of 4 cores with 1 us link flights.
server::SessionSpec longrun_spec(std::uint64_t seed, sim::EngineKind engine) {
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
  spec.seed = seed;
  spec.engine = engine;
  if (engine == sim::EngineKind::Sharded) {
    spec.shards = 4;
    spec.threads = 2;
  }
  spec.net =
      std::make_shared<const neural::NetworkDescription>(b.description());
  return spec;
}

/// FNV-1a over each spike's time then key, 8 bytes each, low byte first.
std::uint64_t stream_digest(
    const std::vector<neural::SpikeRecorder::Event>& events) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& e : events) {
    for (const std::uint64_t word : {static_cast<std::uint64_t>(e.time),
                                     static_cast<std::uint64_t>(e.key)}) {
      for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

struct PinnedStream {
  std::size_t spikes;
  std::uint64_t digest;
};

/// 30 bio ms of seeds 1-3, recorded from a build known to be correct.  A
/// change that claims bit-identical streams must leave these as they are;
/// one that changes the simulation on purpose records new ones and says
/// why.
constexpr PinnedStream kPinnedLongrun[] = {
    {5028, 0xeecbd215c74501d7ull},
    {4938, 0xd8ec89bc35ce0222ull},
    {4846, 0xcd3d2f0535bb39edull},
};

class LongrunStreams : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LongrunStreams, MatchPinnedDigestOnSerialAndShardedEngines) {
  const std::uint64_t seed = GetParam();
  const PinnedStream& want = kPinnedLongrun[seed - 1];
  for (const sim::EngineKind engine :
       {sim::EngineKind::Serial, sim::EngineKind::Sharded}) {
    SCOPED_TRACE(engine == sim::EngineKind::Serial ? "serial"
                                                   : "sharded 4x2");
    const auto events = server::run_standalone(longrun_spec(seed, engine),
                                               30 * kMillisecond);
    EXPECT_EQ(events.size(), want.spikes);
    EXPECT_EQ(stream_digest(events), want.digest);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LongrunStreams, ::testing::Values(1u, 2u, 3u));

// How a core stores its rows may change; what a load accounts for may not.
// bench_e12's longrun net, under the session seed that wirebench's longrun
// seed 1 derives, loads exactly these synapses, rows and SDRAM bytes.
TEST(LongrunLoad, AccountsTheSameSynapsesRowsAndSdramBytes) {
  const server::SessionSpec spec =
      longrun_spec(57798645, sim::EngineKind::Serial);
  System sys(server::system_config(spec));
  const map::LoadReport report = sys.load(server::build_network(spec));
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.total_synapses, 160290u);
  EXPECT_EQ(report.total_rows, 108488u);
  EXPECT_EQ(report.sdram_bytes, 1075112u);
}

// ---- spike recording --------------------------------------------------------

struct RecordedTies {
  std::size_t logged_before_merge = 0;
  std::vector<std::pair<TimeNs, RoutingKey>> log;
};

/// Chip actors 1-4 (two per shard on two shards) each run two events at
/// 100 ns and two at 2,500 ns, and every event records two spikes.  The
/// keys fall as the actor, the event and the emission order rise, so a log
/// sorted by time and key cannot pass for the serial order.  One spike is
/// recorded before the run and one after it, outside any event.
RecordedTies record_ties(sim::ISimulationEngine& engine) {
  constexpr sim::ActorId kActors = 4;
  engine.map_actors(kActors + 1);
  engine.constrain_lookahead(1000);
  neural::SpikeRecorder rec(engine.num_shards());
  rec.record(0, 1);
  EXPECT_EQ(rec.events().size(), 1u) << "a spike outside any event waited";
  for (sim::ActorId a = 1; a <= kActors; ++a) {
    sim::Simulator& ctx = engine.context_of(a);
    for (int i = 0; i < 4; ++i) {
      const auto key = static_cast<RoutingKey>(1000 * (kActors + 1 - a) -
                                               10 * i);
      ctx.at_as(i < 2 ? 100 : 2500, a, [&rec, &ctx, key] {
        rec.record(ctx.now(), key);
        rec.record(ctx.now(), key - 1);
      });
    }
  }
  engine.run_until(5000);
  RecordedTies out;
  out.logged_before_merge = rec.events().size();
  rec.merge();
  rec.record(engine.now(), 2);
  for (const auto& e : rec.events()) out.log.emplace_back(e.time, e.key);
  return out;
}

TEST(ShardedRecording, SameInstantSpikesMergeInSerialOrder) {
  sim::SerialEngine serial(1);
  const RecordedTies want = record_ties(serial);
  ASSERT_EQ(want.log.size(), 1u + 4u * 4u * 2u + 1u);
  EXPECT_EQ(want.logged_before_merge, want.log.size() - 1);
  // Actor 1's first event, its two spikes in emission order.
  EXPECT_EQ(want.log[1], (std::pair<TimeNs, RoutingKey>{100, 4000}));
  EXPECT_EQ(want.log[2], (std::pair<TimeNs, RoutingKey>{100, 3999}));

  sim::ShardedSimulator sharded(1, /*shards=*/2, /*threads=*/2);
  const RecordedTies got = record_ties(sharded);
  EXPECT_GT(sharded.windows_opened(), 0u);
  EXPECT_EQ(got.logged_before_merge, 1u)
      << "spikes recorded inside a shard's event wait for merge()";
  EXPECT_EQ(got.log, want.log);
}

TEST(ShardedRecording, RecorderSizedForFewerShardsThrows) {
  // One thread runs the sequential merge, two run a window.  Either way the
  // throw leaves no shard context behind on this thread, where a later
  // recorder would read it.
  for (const std::uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    sim::ShardedSimulator engine(1, /*shards=*/2, threads);
    engine.map_actors(3);  // actor 2 lives on shard 1
    engine.constrain_lookahead(1000);
    neural::SpikeRecorder rec;  // one shard
    sim::Simulator& ctx = engine.context_of(2);
    ctx.at_as(100, 2, [&rec, &ctx] { rec.record(ctx.now(), 1); });
    EXPECT_THROW(engine.run_until(1000), std::out_of_range);
    EXPECT_EQ(sim::ShardedSimulator::current_context(), nullptr);
  }
}

}  // namespace
}  // namespace spinn
