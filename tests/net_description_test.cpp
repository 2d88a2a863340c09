// The network-description wire format (ISSUE 5).
//
// The contract: a client-described net submitted through the socket
// protocol's `net ... end` block and opened with `app=@` is a session
// indistinguishable from one built embedded — the spike stream is
// bit-identical to compiling the same NetworkDescription locally and
// running it standalone, on serial and sharded engines, across concurrent
// connections and through pooled-engine reuse.  On top of that the
// negative paths are pinned: every malformed, out-of-range or over-budget
// description is a clean protocol error naming the offending line — never
// a torn-down reactor, a leaked session slot, or an evicted resident.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "network_util.hpp"
#include "session_test_util.hpp"

namespace spinn::net {
namespace {

using test::Events;
using test::same_events;
using test::spec_with;

server::SessionSpec spec_with_net(const neural::NetworkDescription& desc,
                                  std::uint64_t seed,
                                  sim::EngineKind engine,
                                  std::uint32_t shards = 0,
                                  std::uint32_t threads = 0) {
  server::SessionSpec spec = spec_with("", seed, engine, shards, threads);
  spec.app.clear();
  spec.net = std::make_shared<const neural::NetworkDescription>(desc);
  return spec;
}

/// The custom network most tests submit: every model, every connector
/// kind, fixed and uniform value dists, inhibition and plasticity.
NetBuilder custom_net(std::uint32_t scale = 1) {
  NetBuilder b;
  b.spike_source("stim", {{1, 4, 9}, {3}, {}});
  b.poisson("bg", 16 * scale, 35.0);
  b.lif("cells", 24 * scale).v_thresh = -52.5;
  b.izhikevich("burst", 8 * scale);
  b.project("stim", "cells", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(12.0), neural::ValueDist::fixed(1.0));
  b.project("bg", "cells", neural::Connector::fixed_probability(0.25),
            neural::ValueDist::uniform(2.0, 6.0),
            neural::ValueDist::fixed(1.0));
  b.project("cells", "cells", neural::Connector::fixed_probability(0.1),
            neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(2.0),
            /*inhibitory=*/true);
  b.project_plastic("cells", "burst", neural::Connector::fixed_probability(0.2),
                    neural::ValueDist::fixed(6.0),
                    neural::ValueDist::uniform(1.0, 3.0),
                    neural::StdpParams{});
  return b;
}

/// Submit a built net over the wire as one batch (net block + fused
/// open/run + wait/drain/close) and return the drained stream.  Expects
/// the canonical six response blocks.
Events submit_over_wire(std::uint16_t port, const NetBuilder& b,
                        const std::string& open_args, const std::string& ms) {
  Client client(port);
  std::vector<std::string> lines = b.lines();
  lines.push_back("open app=@ " + open_args);
  lines.push_back("run $ " + ms);
  lines.push_back("wait $");
  lines.push_back("drain $");
  lines.push_back("close $");
  const auto blocks = Client::split_response(client.batch(lines));
  Events events;
  EXPECT_EQ(blocks.size(), 6u) << "unexpected response shape";
  if (blocks.size() != 6u) return events;
  EXPECT_EQ(blocks[0].rfind("ok net ", 0), 0u) << blocks[0];
  EXPECT_EQ(blocks[1].rfind("ok id=", 0), 0u) << blocks[1];
  EXPECT_EQ(blocks[2], "ok");  // the fused open_and_run's run response
  EXPECT_EQ(blocks[3].rfind("ok t=", 0), 0u) << blocks[3];
  EXPECT_TRUE(parse_spikes(blocks[4], &events)) << blocks[4];
  EXPECT_EQ(blocks[5], "ok");
  return events;
}

/// One batch expected to answer a single error block containing `needle`.
void expect_net_error(NetServer& srv, const std::vector<std::string>& lines,
                      const std::string& needle) {
  Client client(srv.port());
  const auto blocks = Client::split_response(client.batch(lines));
  ASSERT_EQ(blocks.size(), 1u) << "want one error block";
  EXPECT_EQ(blocks[0].rfind("err", 0), 0u) << blocks[0];
  EXPECT_NE(blocks[0].find(needle), std::string::npos) << blocks[0];
}

void expect_same_population(const neural::Population& a,
                            const neural::Population& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.lif.v_rest.raw(), b.lif.v_rest.raw());
  EXPECT_EQ(a.lif.v_reset.raw(), b.lif.v_reset.raw());
  EXPECT_EQ(a.lif.v_thresh.raw(), b.lif.v_thresh.raw());
  EXPECT_EQ(a.lif.decay.raw(), b.lif.decay.raw());
  EXPECT_EQ(a.lif.r_scale.raw(), b.lif.r_scale.raw());
  EXPECT_EQ(a.lif.refractory_ticks, b.lif.refractory_ticks);
  EXPECT_EQ(a.izh.a.raw(), b.izh.a.raw());
  EXPECT_EQ(a.izh.b.raw(), b.izh.b.raw());
  EXPECT_EQ(a.izh.c.raw(), b.izh.c.raw());
  EXPECT_EQ(a.izh.d.raw(), b.izh.d.raw());
  EXPECT_EQ(a.poisson_rate_hz, b.poisson_rate_hz);
  EXPECT_EQ(a.spike_schedule, b.spike_schedule);
  EXPECT_EQ(a.record, b.record);
}

void expect_same_network(const neural::Network& a, const neural::Network& b) {
  ASSERT_EQ(a.populations().size(), b.populations().size());
  for (std::size_t i = 0; i < a.populations().size(); ++i) {
    SCOPED_TRACE("population " + std::to_string(i));
    expect_same_population(a.populations()[i], b.populations()[i]);
  }
  ASSERT_EQ(a.projections().size(), b.projections().size());
  for (std::size_t i = 0; i < a.projections().size(); ++i) {
    SCOPED_TRACE("projection " + std::to_string(i));
    const neural::Projection& p = a.projections()[i];
    const neural::Projection& q = b.projections()[i];
    EXPECT_EQ(p.pre, q.pre);
    EXPECT_EQ(p.post, q.post);
    EXPECT_EQ(p.connector.kind, q.connector.kind);
    EXPECT_EQ(p.connector.probability, q.connector.probability);
    EXPECT_EQ(p.connector.allow_self, q.connector.allow_self);
    EXPECT_EQ(p.weight.lo, q.weight.lo);
    EXPECT_EQ(p.weight.hi, q.weight.hi);
    EXPECT_EQ(p.delay_ms.lo, q.delay_ms.lo);
    EXPECT_EQ(p.delay_ms.hi, q.delay_ms.hi);
    EXPECT_EQ(p.inhibitory, q.inhibitory);
    EXPECT_EQ(p.stdp.enabled, q.stdp.enabled);
    EXPECT_EQ(p.stdp.a_plus, q.stdp.a_plus);
    EXPECT_EQ(p.stdp.a_minus, q.stdp.a_minus);
    EXPECT_EQ(p.stdp.window_ticks, q.stdp.window_ticks);
    EXPECT_EQ(p.stdp.w_max, q.stdp.w_max);
  }
}

// ---- the shared describe -> Network builder --------------------------------

// Each built-in app compiles to the historic (pre-wire) app network, member
// for member: the nets below are spelled independently of spec.cpp, so a
// change to an app's description or to its compilation shows here.
TEST(NetDescription, BuildMatchesConvenienceBuilders) {
  {
    NetBuilder b;
    b.spike_source("src", {{2, 8}, {5}});
    b.lif("dst", 4);
    b.project("src", "dst", neural::Connector::all_to_all(),
              neural::ValueDist::fixed(30.0), neural::ValueDist::fixed(1.0));
    server::SessionSpec spec;
    spec.app = "chain";
    SCOPED_TRACE("chain");
    expect_same_network(server::build_network(spec), test::compile(b.description()));
  }
  {
    NetBuilder b;
    b.poisson("noise", 64, 40.0);
    b.lif("exc", 128);
    b.lif("inh", 32);
    b.project("noise", "exc", neural::Connector::fixed_probability(0.2),
              neural::ValueDist::uniform(4.0, 8.0),
              neural::ValueDist::fixed(1.0));
    b.project("exc", "inh", neural::Connector::fixed_probability(0.1),
              neural::ValueDist::fixed(3.0),
              neural::ValueDist::uniform(1.0, 4.0));
    b.project("inh", "exc", neural::Connector::fixed_probability(0.1),
              neural::ValueDist::fixed(6.0), neural::ValueDist::fixed(1.0),
              /*inhibitory=*/true);
    server::SessionSpec spec;
    spec.app = "noise";
    SCOPED_TRACE("noise");
    expect_same_network(server::build_network(spec), test::compile(b.description()));
  }
  {
    NetBuilder b;
    b.poisson("src", 48, 60.0);
    b.lif("dst", 48);
    b.project_plastic("src", "dst", neural::Connector::fixed_probability(0.3),
                      neural::ValueDist::fixed(12.0),
                      neural::ValueDist::fixed(1.0), neural::StdpParams{});
    server::SessionSpec spec;
    spec.app = "stdp";
    SCOPED_TRACE("stdp");
    expect_same_network(server::build_network(spec), test::compile(b.description()));
  }
}

// A NetBuilder description and its wire round-trip compile to the same
// Network object — the neural-level half of the bit-identity contract.
TEST(NetDescription, WireEncodingCompilesToTheSameNetwork) {
  const NetBuilder b = custom_net();
  const std::vector<std::string> lines = b.lines();
  NetParser parser;
  NetParser::Status status = NetParser::Status::More;
  for (std::size_t i = 1; i < lines.size(); ++i) {  // skip the `net` line
    status = parser.feed(lines[i]);
    ASSERT_NE(status, NetParser::Status::Error) << parser.error();
  }
  ASSERT_EQ(status, NetParser::Status::Done);
  const auto parsed = parser.take();

  neural::Network from_builder;
  neural::Network from_wire;
  std::string error;
  ASSERT_TRUE(neural::build(b.description(), &from_builder, &error)) << error;
  ASSERT_TRUE(neural::build(*parsed, &from_wire, &error)) << error;
  expect_same_network(from_wire, from_builder);
}

// Every boolean key on the wire reads one grammar (server::parse_bool):
// the words compile to the same net as the digits, a glitch takes
// `conv=true`, and any other value is an error naming the key.
TEST(NetDescription, BooleanKeysAcceptWordsAndDigits) {
  const auto block = [](const std::string& record, const std::string& inh,
                        const std::string& self) {
    return std::vector<std::string>{
        "net",
        "pop a poisson 4 rate=50 record=" + record,
        "pop b lif 4",
        "proj a b all w=2 d=1 inh=" + inh,
        "proj b b prob=0.5 w=1 d=1 self=" + self,
        "end"};
  };
  const auto compile = [](const std::vector<std::string>& lines) {
    NetParser parser;
    NetParser::Status status = NetParser::Status::More;
    for (std::size_t i = 1; i < lines.size(); ++i) {  // skip the `net` line
      status = parser.feed(lines[i]);
      EXPECT_NE(status, NetParser::Status::Error) << parser.error();
    }
    EXPECT_EQ(status, NetParser::Status::Done);
    return status == NetParser::Status::Done ? test::compile(*parser.take())
                                             : neural::Network{};
  };
  const std::vector<std::string> words = block("true", "on", "false");
  const neural::Network from_words = compile(words);
  ASSERT_EQ(from_words.projections().size(), 2u);
  EXPECT_TRUE(from_words.population(0).record);
  EXPECT_TRUE(from_words.projections()[0].inhibitory);
  EXPECT_FALSE(from_words.projections()[1].connector.allow_self);
  expect_same_network(from_words, compile(block("1", "1", "0")));
  expect_same_network(compile(block("off", "false", "on")),
                      compile(block("0", "0", "1")));

  NetServer srv;
  Client client(srv.port());
  std::vector<std::string> lines = words;
  lines.push_back("open app=@ seed=3");
  lines.push_back("fault $ glitch link=0,0,E conv=true");
  lines.push_back("close $");
  const auto blocks = Client::split_response(client.batch(lines));
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(blocks[0].rfind("ok net ", 0), 0u) << blocks[0];
  EXPECT_EQ(blocks[1].rfind("ok id=", 0), 0u) << blocks[1];
  EXPECT_EQ(blocks[2].rfind("ok", 0), 0u) << blocks[2];
  EXPECT_EQ(blocks[3], "ok");

  const auto refused =
      Client::split_response(client.batch(block("2", "1", "0")));
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(refused[0], "err @2 net: 'record' expects a boolean, got '2'");
}

// ---- the determinism contract over the wire --------------------------------

TEST(NetDescription, WireNetBitIdenticalToEmbeddedSerial) {
  NetServer srv;
  const NetBuilder b = custom_net();
  const Events wire = submit_over_wire(srv.port(), b, "seed=11", "20");
  const Events reference = server::run_standalone(
      spec_with_net(b.description(), 11, sim::EngineKind::Serial),
      20 * kMillisecond);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(same_events(wire, reference))
      << wire.size() << " vs " << reference.size();
}

TEST(NetDescription, WireNetBitIdenticalToEmbeddedSharded) {
  NetServer srv;
  const NetBuilder b = custom_net();
  const Events wire = submit_over_wire(
      srv.port(), b, "seed=11 engine=sharded shards=4 threads=2", "20");
  const Events reference = server::run_standalone(
      spec_with_net(b.description(), 11, sim::EngineKind::Sharded, 4, 2),
      20 * kMillisecond);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(same_events(wire, reference));
  // And the sharded reference equals the serial one (the engine contract
  // carries over to client-described nets).
  const Events serial = server::run_standalone(
      spec_with_net(b.description(), 11, sim::EngineKind::Serial),
      20 * kMillisecond);
  EXPECT_TRUE(same_events(reference, serial));
}

// A wire-submitted copy of a built-in app's description is
// indistinguishable from naming the app.
TEST(NetDescription, WireNetIndistinguishableFromBuiltinApp) {
  NetServer srv;
  NetBuilder b;
  b.spike_source("src", {{2, 8}, {5}});
  b.lif("dst", 4);
  b.project("src", "dst", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(30.0), neural::ValueDist::fixed(1.0));
  const Events wire = submit_over_wire(srv.port(), b, "seed=7", "20");
  const Events reference = server::run_standalone(
      spec_with("chain", 7, sim::EngineKind::Serial), 20 * kMillisecond);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(same_events(wire, reference));
}

// The acceptance bar: 8 concurrent connections each submitting a
// differently-shaped net, mixed engines, every stream bit-identical to
// its description run standalone.
TEST(NetDescription, EightConcurrentConnectionsSubmitDistinctNets) {
  NetConfig cfg;
  cfg.session.workers = 4;
  cfg.session.max_sessions = 8;
  NetServer srv(cfg);

  struct Job {
    NetBuilder net;
    std::string args;
    server::SessionSpec spec;
  };
  std::vector<Job> jobs;
  for (std::uint32_t i = 0; i < 8; ++i) {
    Job job;
    job.net = custom_net(1 + i % 3);
    const std::uint64_t seed = 100 + i;
    if (i % 2 == 1) {
      job.args = "seed=" + std::to_string(seed) +
                 " engine=sharded shards=" + std::to_string(2 + i % 4) +
                 " threads=2";
      job.spec = spec_with_net(job.net.description(), seed,
                               sim::EngineKind::Sharded, 2 + i % 4, 2);
    } else {
      job.args = "seed=" + std::to_string(seed);
      job.spec = spec_with_net(job.net.description(), seed,
                               sim::EngineKind::Serial);
    }
    jobs.push_back(std::move(job));
  }
  std::vector<Events> streams(jobs.size());
  std::vector<std::thread> clients;
  clients.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    clients.emplace_back([&, i] {
      streams[i] = submit_over_wire(srv.port(), jobs[i].net, jobs[i].args,
                                    "15");
    });
  }
  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE("connection " + std::to_string(i));
    const Events reference =
        server::run_standalone(jobs[i].spec, 15 * kMillisecond);
    ASSERT_FALSE(reference.empty());
    EXPECT_TRUE(same_events(streams[i], reference))
        << streams[i].size() << " vs " << reference.size();
  }
  EXPECT_EQ(srv.stats().shed_slow, 0u);
  EXPECT_EQ(srv.stats().shed_flood, 0u);
}

// Engine reuse across differently-shaped nets: the pooled engine a closed
// session returns is recycled for the next net, and reset() makes the
// recycled run bit-identical to a fresh standalone one.
TEST(NetDescription, EngineReuseAcrossDifferentlyShapedNets) {
  NetConfig cfg;
  cfg.session.workers = 1;
  NetServer srv(cfg);

  const NetBuilder small = custom_net(1);
  const NetBuilder big = custom_net(3);
  const Events first = submit_over_wire(srv.port(), small, "seed=5", "10");
  const Events second = submit_over_wire(srv.port(), big, "seed=6", "10");
  // Same engine shape (serial) => the second session reused the first's
  // pooled engine.
  EXPECT_GE(srv.sessions().stats().engines.reused, 1u);
  EXPECT_TRUE(same_events(
      first, server::run_standalone(
                 spec_with_net(small.description(), 5,
                               sim::EngineKind::Serial),
                 10 * kMillisecond)));
  EXPECT_TRUE(same_events(
      second, server::run_standalone(
                  spec_with_net(big.description(), 6,
                                sim::EngineKind::Serial),
                  10 * kMillisecond)));

  // The sharded shape too: same shard/thread geometry, different net.
  const Events third = submit_over_wire(
      srv.port(), small, "seed=7 engine=sharded shards=2 threads=2", "10");
  const Events fourth = submit_over_wire(
      srv.port(), big, "seed=8 engine=sharded shards=2 threads=2", "10");
  EXPECT_GE(srv.sessions().stats().engines.reused, 2u);
  EXPECT_TRUE(same_events(
      third, server::run_standalone(
                 spec_with_net(small.description(), 7,
                               sim::EngineKind::Sharded, 2, 2),
                 10 * kMillisecond)));
  EXPECT_TRUE(same_events(
      fourth, server::run_standalone(
                  spec_with_net(big.description(), 8,
                                sim::EngineKind::Sharded, 2, 2),
                  10 * kMillisecond)));
}

// A second net block in the same batch rebinds `@`; a failed one unbinds
// it (no silent fall-through to the earlier description).
TEST(NetDescription, SecondNetBlockRebindsAt) {
  NetServer srv;
  Client client(srv.port());
  const NetBuilder a = custom_net(1);
  NetBuilder bee;
  bee.spike_source("only", {{1}, {2}});
  bee.lif("sink", 6);
  bee.project("only", "sink", neural::Connector::one_to_one(),
              neural::ValueDist::fixed(40.0), neural::ValueDist::fixed(1.0));

  std::vector<std::string> lines = a.lines();
  const auto b_lines = bee.lines();
  lines.insert(lines.end(), b_lines.begin(), b_lines.end());
  lines.push_back("open app=@ seed=3");
  lines.push_back("run $ 10");
  lines.push_back("wait $");
  lines.push_back("drain $");
  lines.push_back("close $");
  const auto blocks = Client::split_response(client.batch(lines));
  ASSERT_EQ(blocks.size(), 7u);  // two net blocks + 5 lifecycle responses
  Events events;
  ASSERT_TRUE(parse_spikes(blocks[5], &events));
  const Events reference = server::run_standalone(
      spec_with_net(bee.description(), 3, sim::EngineKind::Serial),
      10 * kMillisecond);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(same_events(events, reference));
}

TEST(NetDescription, FailedNetBlockUnbindsAt) {
  NetServer srv;
  Client client(srv.port());
  std::vector<std::string> lines = custom_net().lines();  // binds @
  lines.push_back("net");
  lines.push_back("pop broken lif 0");  // size 0: the block fails
  lines.push_back("end");
  lines.push_back("open app=@ seed=1");
  const auto blocks = Client::split_response(client.batch(lines));
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].rfind("ok net ", 0), 0u);
  EXPECT_NE(blocks[1].find("err"), std::string::npos);
  EXPECT_NE(blocks[2].find("no network description bound"),
            std::string::npos)
      << blocks[2];
}

// ---- cost-aware admission of described nets --------------------------------

// Connectivity, not just machine size, is the admission charge: a dense
// net costs more than a sparse one on the same machine and bio time.
TEST(NetDescription, AdmissionChargesTheSynapseTerm) {
  NetBuilder sparse;
  sparse.poisson("src", 64, 10.0);
  sparse.lif("dst", 64);
  sparse.project("src", "dst", neural::Connector::one_to_one(),
                 neural::ValueDist::fixed(5.0),
                 neural::ValueDist::fixed(1.0));
  NetBuilder dense;
  dense.poisson("src", 64, 10.0);
  dense.lif("dst", 64);
  dense.project("src", "dst", neural::Connector::all_to_all(),
                neural::ValueDist::fixed(5.0),
                neural::ValueDist::fixed(1.0));

  server::SessionSpec sparse_spec =
      spec_with_net(sparse.description(), 1, sim::EngineKind::Serial);
  server::SessionSpec dense_spec =
      spec_with_net(dense.description(), 1, sim::EngineKind::Serial);
  EXPECT_EQ(server::estimated_synapses(sparse_spec), 64u);
  EXPECT_EQ(server::estimated_synapses(dense_spec), 64u * 64u);
  const TimeNs bio = 10 * kMillisecond;
  EXPECT_GT(server::admission_cost(dense_spec, bio),
            server::admission_cost(sparse_spec, bio));
  // The charge is exactly (machine footprint + synapse estimate) × ms.
  EXPECT_EQ(server::admission_cost(dense_spec, bio),
            (server::admission_footprint(dense_spec)) * 10u);
}

// An over-budget net is rejected at admission — before any elaboration —
// and the rejection does not evict the resident (busy) session.
TEST(NetDescription, OverBudgetNetRejectedWithoutEvictingResidents) {
  NetConfig cfg;
  cfg.session.workers = 0;  // sessions stay busy: nothing is evictable
  server::SessionSpec resident = spec_with("chain", 1, sim::EngineKind::Serial);
  resident.bio_hint = 10 * kMillisecond;
  cfg.session.cost_budget = server::admission_cost(resident);
  NetServer srv(cfg);
  Client client(srv.port());

  server::SessionId id = server::kInvalidSession;
  ASSERT_TRUE(parse_open_id(
      client.request("open app=chain seed=1 bio_hint_ms=10"), &id));

  // A dense 256x256 all-to-all net declaring bio time dwarfs the budget.
  NetBuilder dense;
  dense.poisson("src", 256, 20.0);
  dense.lif("dst", 256);
  dense.project("src", "dst", neural::Connector::all_to_all(),
                neural::ValueDist::fixed(2.0),
                neural::ValueDist::fixed(1.0));
  std::vector<std::string> lines = dense.lines();
  lines.push_back("open app=@ seed=2 bio_hint_ms=10");
  const auto blocks = Client::split_response(client.batch(lines));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].rfind("ok net ", 0), 0u) << blocks[0];
  EXPECT_NE(blocks[1].find("exceeds the whole budget"), std::string::npos)
      << blocks[1];
  // The rejection names the synapse term of the charge.
  EXPECT_NE(blocks[1].find("synapses"), std::string::npos) << blocks[1];

  // The resident session survived, unevicted; the books agree.
  const std::string status = client.request("status " + std::to_string(id));
  EXPECT_NE(status.find("evicted=0"), std::string::npos) << status;
  const std::string stats = client.request("stats");
  EXPECT_NE(stats.find("rejected_cost=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("resident=1"), std::string::npos) << stats;
}

// ---- negative paths: the parser suite --------------------------------------

TEST(NetNegative, TruncatedBlockIsOneCleanError) {
  NetServer srv;
  Client client(srv.port());
  const auto blocks = Client::split_response(
      client.batch({"net", "pop a lif 4"}));  // no `end`
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_NE(blocks[0].find("err"), std::string::npos);
  EXPECT_NE(blocks[0].find("truncated"), std::string::npos) << blocks[0];
  // The connection (and the reactor behind it) is fine.
  EXPECT_EQ(client.request("ping"), "ok");
}

// A net block interrupted across frames does not leak parser state into
// the next frame: the continuation lines are their own clean errors.
TEST(NetNegative, BlocksDoNotSpanFrames) {
  NetServer srv;
  Client client(srv.port());
  const std::string first = client.request("net\npop a lif 4");
  EXPECT_NE(first.find("truncated"), std::string::npos) << first;
  const std::string second = client.request("pop b lif 4\nend");
  const auto blocks = Client::split_response(second);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_NE(blocks[0].find("only valid inside a net block"),
            std::string::npos)
      << blocks[0];
  EXPECT_NE(blocks[1].find("only valid inside a net block"),
            std::string::npos)
      << blocks[1];
}

// A foreign verb inside a block fails the block with the offending line
// index, skips to `end`, and execution resumes after it.
TEST(NetNegative, InterleavedVerbFailsTheBlockAndResumesAfterEnd) {
  NetServer srv;
  Client client(srv.port());
  const auto blocks = Client::split_response(client.batch(
      {"net", "pop a lif 4", "ping", "proj a a all", "end", "ping"}));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].rfind("err @3 ", 0), 0u) << blocks[0];
  EXPECT_NE(blocks[0].find("expected pop, proj or end"), std::string::npos)
      << blocks[0];
  EXPECT_EQ(blocks[1], "ok");  // the trailing ping ran
}

TEST(NetNegative, UnknownPopulationReferenceNamesTheLine) {
  NetServer srv;
  expect_net_error(srv, {"net", "pop a lif 4", "proj a nothere all", "end"},
                   "unknown population 'nothere'");
  // And the error carries the offending line's index (@3).
  Client client(srv.port());
  const auto blocks = Client::split_response(client.batch(
      {"net", "pop a lif 4", "proj a nothere all", "end"}));
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].rfind("err @3 ", 0), 0u) << blocks[0];
}

// Value-range errors are attributed to the offending pop/proj line, like
// parse errors — not deferred to the closing `end`.
TEST(NetNegative, RangeErrorsNameTheOffendingLine) {
  NetServer srv;
  Client client(srv.port());
  {
    const auto blocks = Client::split_response(
        client.batch({"net", "pop a lif 4 decay=7", "proj a a all", "end"}));
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].rfind("err @2 ", 0), 0u) << blocks[0];
    EXPECT_NE(blocks[0].find("decay must be in [0, 1]"), std::string::npos)
        << blocks[0];
  }
  {
    const auto blocks = Client::split_response(client.batch(
        {"net", "pop a lif 4", "proj a a all w=300", "end"}));
    ASSERT_EQ(blocks.size(), 1u);
    EXPECT_EQ(blocks[0].rfind("err @3 ", 0), 0u) << blocks[0];
    EXPECT_NE(blocks[0].find("weight must be in"), std::string::npos)
        << blocks[0];
  }
}

TEST(NetNegative, DuplicatePopulationNameRejected) {
  NetServer srv;
  expect_net_error(srv, {"net", "pop a lif 4", "pop a poisson 8 rate=5",
                         "end"},
                   "duplicate population name 'a'");
}

TEST(NetNegative, OutOfRangeSizesRejected) {
  NetServer srv;
  expect_net_error(srv, {"net", "pop a lif 0", "end"},
                   "population size");
  expect_net_error(srv, {"net", "pop a lif 1048577", "end"},
                   "population size");
  expect_net_error(srv, {"net", "pop a lif x4", "end"},
                   "population size");
}

TEST(NetNegative, OutOfRangeParametersRejected) {
  NetServer srv;
  // Weight past the pack_weight ceiling.
  expect_net_error(srv,
                   {"net", "pop a poisson 4 rate=10", "pop b lif 4",
                    "proj a b all w=1e9", "end"},
                   "weight");
  // Delay past the 4-bit field.
  expect_net_error(srv,
                   {"net", "pop a poisson 4 rate=10", "pop b lif 4",
                    "proj a b all d=99", "end"},
                   "delay");
  // Probability outside [0, 1].
  expect_net_error(srv,
                   {"net", "pop a poisson 4 rate=10", "pop b lif 4",
                    "proj a b prob=1.5", "end"},
                   "probability");
  // Negative Poisson rate.
  expect_net_error(srv, {"net", "pop a poisson 4 rate=-5", "end"}, "rate");
  // Schedule/size mismatch.
  expect_net_error(srv, {"net", "pop a spike_source 3 sched=1,2;5", "end"},
                   "spike trains");
  // Malformed numbers are parse errors, not silent defaults.
  expect_net_error(srv,
                   {"net", "pop a poisson 4 rate=10", "pop b lif 4",
                    "proj a b all w=3:x", "end"},
                   "'w' expects");
  expect_net_error(srv, {"net", "pop a lif 4 v_thresh=abc", "end"},
                   "'v_thresh' expects");
  // Inapplicable keys are typos the client hears about.
  expect_net_error(srv, {"net", "pop a lif 4 rate=10", "end"},
                   "unknown key 'rate'");
}

TEST(NetNegative, OverSynapseCapRejected) {
  NetServer srv;
  // 2^20 x 2^20 all-to-all is ~2^40 synapses: over the description cap,
  // rejected at `end` with no elaboration attempted.
  expect_net_error(srv,
                   {"net", "pop a poisson 1048576 rate=1",
                    "pop b lif 1048576", "proj a b all", "end"},
                   "synapses, cap is");
}

// `self=` on the one connector would be silently meaningless (elaboration
// always wires the diagonal) — rejected at the proj line instead.
TEST(NetNegative, SelfOnOneToOneRejected) {
  NetServer srv;
  expect_net_error(srv,
                   {"net", "pop a lif 4", "proj a a one self=0", "end"},
                   "'self' does not apply to the one connector");
  // The embedded path rejects it too (a hand-built description can carry
  // allow_self=false on OneToOne without going through the parser).
  neural::NetworkDescription desc;
  neural::PopulationDesc pop;
  pop.name = "a";
  pop.size = 4;
  desc.populations.push_back(pop);
  neural::ProjectionDesc proj;
  proj.pre = "a";
  proj.post = "a";
  proj.connector = neural::Connector::one_to_one();
  proj.connector.allow_self = false;
  desc.projections.push_back(proj);
  std::string why;
  EXPECT_FALSE(neural::validate(desc, &why));
  EXPECT_NE(why.find("one_to_one"), std::string::npos) << why;
}

// A block that errors mid-frame and never reaches `end` swallows the
// remaining lines as recovery — the client must hear both the parse error
// and that the tail never ran.
TEST(NetNegative, FailedBlockWithoutEndReportsTheSwallowedTail) {
  NetServer srv;
  Client client(srv.port());
  const auto blocks = Client::split_response(
      client.batch({"net", "pop x bogus 4", "ping"}));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].rfind("err @2 ", 0), 0u) << blocks[0];
  EXPECT_NE(blocks[0].find("unknown neuron model"), std::string::npos)
      << blocks[0];
  EXPECT_EQ(blocks[1].rfind("err @1 ", 0), 0u) << blocks[1];
  EXPECT_NE(blocks[1].find("truncated"), std::string::npos) << blocks[1];
  EXPECT_EQ(client.request("ping"), "ok");
}

TEST(NetNegative, PlasticInhibitoryRejected) {
  NetServer srv;
  expect_net_error(srv,
                   {"net", "pop a poisson 4 rate=10", "pop b lif 4",
                    "proj a b all inh=1 stdp=0.1,0.12,20,10", "end"},
                   "excitatory only");
}

TEST(NetNegative, BlockVerbsOutsideABlockFail) {
  NetServer srv;
  Client client(srv.port());
  EXPECT_EQ(client.request("pop a lif 4"),
            "err 'pop' is only valid inside a net block");
  EXPECT_EQ(client.request("proj a b all"),
            "err 'proj' is only valid inside a net block");
  EXPECT_EQ(client.request("end"),
            "err 'end' is only valid inside a net block");
  EXPECT_EQ(client.request("net extra"),
            "err usage: net (alone on its line, then pop/proj lines, then "
            "end)");
}

// `err @<n>` indices match the client's own numbering even across blank
// separator lines (they execute as no-ops but still count).
TEST(NetNegative, BatchErrorIndicesCountBlankLines) {
  NetServer srv;
  Client client(srv.port());
  const auto blocks = Client::split_response(
      client.batch({"ping", "", "open app=bogus"}));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], "ok");
  EXPECT_EQ(blocks[1], "err @3 unknown app 'bogus'") << blocks[1];
}

// One malformed token for every key=value scan and every `,`/`;` split in
// the wire grammars — pop and proj options, open, fault options, the
// `stdp=` fields, the `sched=` ticks and the core=/chip=/link= coordinates —
// each pinned to its full error response.
TEST(NetNegative, MalformedTokensAnswerPinnedErrors) {
  const std::string fault_usage =
      "usage: fault <id|$> kill core=<x>,<y>,<c>|chip=<x>,<y> | "
      "glitch|heal link=<x>,<y>,<E|NE|N|W|SW|S> [at=<ms>] [rate=<hz>] "
      "[symbols=<n>] [conv=<0|1>]";
  const std::string stdp_usage =
      "err @4 net: 'stdp' expects <a_plus>,<a_minus>,<window_ticks>,<w_max>, "
      "got '";
  const auto proj = [](const std::string& opts) {
    return std::vector<std::string>{"net", "pop a lif 4", "pop b lif 4",
                                    "proj a b all " + opts, "end"};
  };
  const auto fault = [](const std::string& args) {
    return std::vector<std::string>{"open app=chain seed=1",
                                    "fault $ " + args, "close $"};
  };
  struct Case {
    std::vector<std::string> lines;
    std::string error;
  };
  const std::vector<Case> cases = {
      {{"net", "pop a lif 4 v_thresh", "end"},
       "err @2 net: expected key=value, got 'v_thresh'"},
      {proj("w"), "err @4 net: expected key=value, got 'w'"},
      {proj("=2"), "err @4 net: unknown key '' for proj"},
      {{"open app=chain seed"}, "err expected key=value, got 'seed'"},
      {{"ping", "open app=chain seed"},
       "err @2 expected key=value, got 'seed'"},
      {fault("kill chip=0,0 at"), "err @2 expected key=value, got 'at'"},
      {proj("stdp=0.1,0.1,20"), stdp_usage + "0.1,0.1,20'"},
      {proj("stdp=0.1,0.1,20,5,"), stdp_usage + "0.1,0.1,20,5,'"},
      {proj("stdp=0.1;0.1,20,5"), stdp_usage + "0.1;0.1,20,5'"},
      {proj("stdp=0.1,,20,5"), stdp_usage + "0.1,,20,5'"},
      {{"net", "pop s spike_source 2 sched=1,x;3", "end"},
       "err @2 net: bad schedule tick 'x'"},
      {{"net", "pop s spike_source 2 sched=1,,2;3", "end"},
       "err @2 net: bad schedule tick ''"},
      {{"net", "pop s spike_source 2 sched=1,2,", "end"},
       "err @2 net: bad schedule tick ''"},
      {{"net", "pop s spike_source 2 sched=1;2;", "end"},
       "err @2 net: sched defines 3 spike trains for size 2"},
      {{"net", "pop s spike_source 2 sched=1", "end"},
       "err @2 net: sched defines 1 spike trains for size 2"},
      {fault("kill core=1,2"),
       "err @2 bad fault target 'core=1,2' (" + fault_usage + ")"},
      {fault("kill core=,0,0"),
       "err @2 bad fault target 'core=,0,0' (" + fault_usage + ")"},
      {fault("kill chip=1,2,"),
       "err @2 bad fault target 'chip=1,2,' (" + fault_usage + ")"},
      {fault("glitch link=0,0,X"),
       "err @2 bad fault target 'link=0,0,X' (" + fault_usage + ")"},
      {fault("heal link=0,0;E"),
       "err @2 bad fault target 'link=0,0;E' (" + fault_usage + ")"},
  };
  NetServer srv;
  Client client(srv.port());
  for (const Case& c : cases) {
    SCOPED_TRACE(c.lines.size() > 1 ? c.lines[c.lines.size() - 2]
                                    : c.lines[0]);
    std::vector<std::string> errors;
    for (const auto& block : Client::split_response(client.batch(c.lines))) {
      if (block.rfind("err", 0) == 0) errors.push_back(block);
    }
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0], c.error);
  }
}

TEST(NetNegative, OpenAtWithoutANetFails) {
  NetServer srv;
  Client client(srv.port());
  const std::string single = client.request("open app=@ seed=1");
  EXPECT_NE(single.find("no network description bound"), std::string::npos)
      << single;
  // In a batch the error is indexed like any other.
  const auto blocks =
      Client::split_response(client.batch({"ping", "open app=@"}));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[1].rfind("err @2 ", 0), 0u) << blocks[1];
}

// The slot-leak check: a barrage of malformed and rejected descriptions
// leaves zero sessions, zero engines leased, and a healthy server.
TEST(NetNegative, RejectionsLeakNoSessionSlots) {
  NetServer srv;
  Client client(srv.port());
  const std::vector<std::vector<std::string>> bad = {
      {"net", "pop a lif 0", "end", "open app=@"},
      {"net", "pop a lif 4"},
      {"net", "pop a lif 4", "bogus", "end", "open app=@ seed=1"},
      {"net", "pop a lif 4", "proj a b all", "end", "open app=@"},
      {"open app=@ seed=9"},
  };
  for (const auto& lines : bad) {
    const auto blocks = Client::split_response(client.batch(lines));
    ASSERT_FALSE(blocks.empty());
    for (const auto& blk : blocks) {
      EXPECT_EQ(blk.rfind("ok id=", 0), std::string::npos)
          << "a rejected description opened a session: " << blk;
    }
  }
  const auto stats = srv.sessions().stats();
  EXPECT_EQ(stats.opened, 0u);
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.engines.created, 0u);
  // And the server still serves: a valid net sails through.
  const Events ok = submit_over_wire(srv.port(), custom_net(), "seed=4", "5");
  EXPECT_EQ(srv.sessions().stats().opened, 1u);
  EXPECT_EQ(srv.sessions().stats().closed, 1u);
}

// A description that validates but cannot be placed on the requested
// machine is refused at `open`, with the placer's quantified error: no
// session is built only to fail its load, and the server and the
// connection keep serving.
TEST(NetNegative, UnplaceableNetIsRefusedAtOpen) {
  NetConfig cfg;
  cfg.session.workers = 1;
  NetServer srv(cfg);
  Client client(srv.port());
  NetBuilder b;
  b.poisson("src", 4, 5.0);
  b.lif("big", 100000);  // valid description, but 2x2x6 cores hold 1280
  b.project("src", "big", neural::Connector::one_to_one(),
            neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
  std::vector<std::string> lines = b.lines();
  lines.push_back("open app=@ seed=1");
  const auto blocks = Client::split_response(client.batch(lines));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[1].rfind("err ", 0), 0u) << blocks[1];
  EXPECT_NE(blocks[1].find("network does not fit on the machine: 100004 "
                           "neurons need 1564 cores at 64 neurons_per_core, "
                           "of 20 application cores"),
            std::string::npos)
      << blocks[1];
  EXPECT_EQ(srv.sessions().stats().opened, 0u);
  EXPECT_EQ(client.request("ping"), "ok");
}

// neurons_per_core accepts up to 2^20 on the wire, but a slice's neurons are
// numbered in 11 key bits: a net that would need a wider slice is refused at
// `open` with the placer's quantified error, instead of opening a session
// whose load then fails.
TEST(NetNegative, SliceWiderThanTheKeyLayoutIsRefusedAtOpen) {
  NetConfig cfg;
  cfg.session.workers = 1;
  NetServer srv(cfg);
  Client client(srv.port());
  NetBuilder b;
  b.lif("big", 3000);
  std::vector<std::string> lines = b.lines();
  lines.push_back("open app=@ width=2 height=2 neurons_per_core=4096");
  const auto blocks = Client::split_response(client.batch(lines));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[1].rfind("err ", 0), 0u) << blocks[1];
  EXPECT_NE(blocks[1].find("population 'big' needs 3000-neuron slices at "
                           "4096 neurons_per_core, but the key layout holds "
                           "2048 neurons per slice"),
            std::string::npos)
      << blocks[1];
  EXPECT_EQ(srv.sessions().stats().opened, 0u);
  // The widest slice the layout holds opens and runs.
  lines.back() = "open app=@ width=2 height=2 neurons_per_core=2048";
  lines.push_back("run $ 1");
  const auto fits = Client::split_response(client.batch(lines));
  ASSERT_EQ(fits.size(), 3u);
  EXPECT_EQ(fits[1].rfind("ok id=", 0), 0u) << fits[1];
  EXPECT_EQ(fits[2].rfind("ok", 0), 0u) << fits[2];
  EXPECT_EQ(client.request("ping"), "ok");
}

// The net block's vital-signs response reports what admission will charge.
TEST(NetDescription, NetBlockReportsVitalSigns) {
  NetServer srv;
  Client client(srv.port());
  NetBuilder b;
  b.poisson("src", 8, 10.0);
  b.lif("dst", 16);
  b.project("src", "dst", neural::Connector::all_to_all(),
            neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
  std::vector<std::string> lines = b.lines();
  lines.push_back("ping");
  const auto blocks = Client::split_response(client.batch(lines));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], "ok net pops=2 projs=1 neurons=24 synapses~128");
  EXPECT_EQ(blocks[1], "ok");
}

}  // namespace
}  // namespace spinn::net
