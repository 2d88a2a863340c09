// The traced run: per-layer timings for one workload, from spans recorded
// around the calls into each layer (the library itself is not
// instrumented further).  Four parts, in this order:
//
//  1. an engine probe at longrun's configuration: the sharded engine's own
//     window/barrier/merge histograms, its pending-event depth and largest
//     routing table, which size the kernel loops of part 4;
//  2. an in-process replay of the workload's sessions, calling each layer
//     in the order a session does (frame decode, NetParser, validate and
//     admission, build_network, System on an EnginePool lease, place,
//     route, load, 1 ms slices, drain, format_spikes, append_frame),
//     alternately with span recording on and off to price the recording;
//  3. the same sessions through the embedded SessionServer API;
//  4. ping probes and unloaded whole-lifecycle sessions over a socket, then
//     the kernel loops.
//
// Spans are kept in memory and written as one Chrome trace_event file when
// the run ends; the metrics are computed from the same span records.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "map/placement.hpp"
#include "map/routing_gen.hpp"
#include "neural/neuron_models.hpp"
#include "obs/registry.hpp"
#include "router/routing_table.hpp"
#include "sim/event_queue.hpp"

namespace wirebench {
namespace {

struct Span {
  const char* name;
  std::int64_t t0;
  std::int64_t t1;
  std::uint32_t id;
  std::uint32_t parent;
  std::uint64_t session;
};

struct SpanLog {
  bool recording = true;
  std::uint32_t next_id = 0;
  std::vector<Span> spans;
};

/// One span from construction to destruction; free when not recording.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint32_t parent,
        std::uint64_t session)
      : log_(log), name_(name), parent_(parent), session_(session) {
    if (log_.recording) {
      id_ = ++log_.next_id;
      t0_ = now_ns();
    }
  }
  ~Scope() {
    if (log_.recording) {
      log_.spans.push_back({name_, t0_, now_ns(), id_, parent_, session_});
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  const char* name_;
  std::uint32_t parent_;
  std::uint64_t session_;
  std::uint32_t id_ = 0;
  std::int64_t t0_ = 0;
};

std::size_t sessions_for(const std::string& workload) {
  if (workload == "chain") return 400;
  if (workload == "netdesc") return 16;
  return 1;
}

/// The network of a plan in wire form: the client's block, or a built-in
/// app's description encoded as a client would send it.
std::vector<std::string> wire_net(const SessionPlan& p) {
  return p.net_lines.empty()
             ? net::encode_net(server::app_description(p.spec.app))
             : p.net_lines;
}

/// The spec as the wire path builds it: description and name map from
/// NetParser, so admission and build skip re-resolution as they do there.
server::SessionSpec parsed_spec(const SessionPlan& p) {
  server::SessionSpec spec = p.spec;
  if (p.net_lines.empty()) return spec;
  net::NetParser parser;
  net::NetParser::Status st = net::NetParser::Status::More;
  for (std::size_t i = 1; i < p.net_lines.size(); ++i) {
    st = parser.feed(p.net_lines[i]);
  }
  if (st != net::NetParser::Status::Done) {
    throw std::runtime_error("net block did not parse: " + parser.error());
  }
  spec.net = parser.take();
  spec.net_names = parser.take_names();
  return spec;
}

void frame_round_trip(const std::string& payload) {
  std::string wire;
  net::append_frame(wire, payload);
  net::FrameDecoder dec(8u << 20);
  dec.feed(wire.data(), wire.size());
  std::string out;
  if (!dec.next(&out) || out.size() != payload.size()) {
    throw std::runtime_error("frame round trip lost bytes");
  }
}

struct Replayed {
  std::uint64_t digest = kDigestBasis;
  std::uint64_t events = 0;
  std::uint64_t synapses = 0;
};

Replayed replay(const SessionPlan& p, SpanLog& log, std::uint64_t session,
                server::EnginePool& pool) {
  Replayed out;
  const Scope whole(log, "session", 0, session);
  const std::uint32_t sp = whole.id();
  {
    const Scope s(log, "net.frame", sp, session);
    frame_round_trip(batch_frame(p));
  }
  const std::vector<std::string> lines = wire_net(p);
  server::SessionSpec spec = p.spec;
  {
    const Scope s(log, "net.parse", sp, session);
    net::NetParser parser;
    net::NetParser::Status st = net::NetParser::Status::More;
    for (std::size_t i = 1; i < lines.size(); ++i) st = parser.feed(lines[i]);
    if (st != net::NetParser::Status::Done) {
      throw std::runtime_error("net block did not parse: " + parser.error());
    }
    auto desc = parser.take();
    auto names = parser.take_names();
    if (!p.net_lines.empty()) {
      spec.net = std::move(desc);
      spec.net_names = std::move(names);
    }
  }
  {
    const Scope s(log, "server.admit", sp, session);
    std::string error;
    if (!server::validate(spec, &error)) {
      throw std::runtime_error("spec rejected: " + error);
    }
    if (server::admission_cost(spec, p.run) == 0) {
      throw std::runtime_error("zero admission cost");
    }
  }
  neural::Network net;
  {
    const Scope s(log, "neural.build", sp, session);
    net = server::build_network(spec);
  }
  const SystemConfig cfg = server::system_config(spec);
  server::EnginePool::Lease lease;
  std::unique_ptr<System> sys;  // destroyed before the lease goes back
  {
    const Scope s(log, "core.machine", sp, session);
    lease = pool.acquire(cfg.engine);
    sys = std::make_unique<System>(cfg, *lease);
  }
  map::PlacementResult placement;
  {
    const Scope s(log, "map.place", sp, session);
    placement = map::place(net, sys->machine(), cfg.mapper);
  }
  {
    const Scope s(log, "map.route", sp, session);
    const auto routing = map::generate_routing(
        net, placement, sys->machine().topology(), cfg.mapper);
    if (routing.stats.entries_total == 0 && net.projections().size() > 1) {
      throw std::runtime_error("empty routing");
    }
  }
  map::LoadReport report;
  {
    const Scope s(log, "map.load", sp, session);
    report = sys->load(net);
  }
  if (!report.ok) throw std::runtime_error("load failed: " + report.error);
  out.synapses = report.total_synapses;
  sys->spikes().retain_drained(false);
  const std::uint64_t e0 = sys->engine().executed();
  for (TimeNs t = 0; t < p.run; t += kMillisecond) {
    {
      const Scope s(log, "sim.slice", sp, session);
      sys->run(kMillisecond);
    }
    const auto events = sys->spikes().drain();
    out.digest = digest(events, out.digest);
    std::string block;
    {
      const Scope s(log, "net.format", sp, session);
      block = net::format_spikes(events);
    }
    const Scope s(log, "net.frame", sp, session);
    frame_round_trip(block);
  }
  out.events = sys->engine().executed() - e0;
  sys.reset();
  return out;
}

struct EngineProbe {
  double window_us = 0.0;
  double barrier_frac = 0.0;
  double merge_frac = 0.0;
  std::size_t pending = 0;
  std::size_t table = 0;
};

/// longrun's configuration on a private System: its sharded windows, its
/// pending-event depth and its largest per-chip routing table.
EngineProbe probe_engine(std::uint64_t seed) {
  const SessionPlan p = longrun_plan(seed);
  System sys(server::system_config(p.spec));
  const map::LoadReport report = sys.load(server::build_network(p.spec));
  if (!report.ok) throw std::runtime_error("probe load: " + report.error);
  sys.run(kMillisecond);  // the engine registers its histograms here
  EngineProbe out;
  // Sampled within slices: at a 1 ms boundary only the timers are queued.
  std::vector<double> pending;
  for (int i = 0; i < 20; ++i) {
    sys.run(kMillisecond / 10);
    pending.push_back(static_cast<double>(sys.engine().pending()));
  }
  out.pending = static_cast<std::size_t>(median(pending));
  auto& reg = obs::Registry::global();
  obs::Histogram& win = reg.histogram("sim.window_wall_ns", 0, 100'000'000, 1000);
  obs::Histogram& bar = reg.histogram("sim.barrier_wall_ns", 0, 100'000'000, 1000);
  obs::Histogram& mrg = reg.histogram("sim.merge_wall_ns", 0, 100'000'000, 1000);
  const std::uint64_t wc = win.count();
  const std::uint64_t ws = win.sum();
  const std::uint64_t bs = bar.sum();
  const std::uint64_t ms = mrg.sum();
  std::int64_t run_ns = 0;
  for (int i = 0; i < 10; ++i) {
    const std::int64_t t0 = now_ns();
    sys.run(kMillisecond);
    run_ns += now_ns() - t0;
  }
  const auto windows = static_cast<double>(win.count() - wc);
  if (windows <= 0 || run_ns <= 0) throw std::runtime_error("no windows");
  // Mean, not median: the registry's bins are 100 us wide, wider than a
  // window.
  out.window_us = static_cast<double>(win.sum() - ws) / windows / 1e3;
  out.barrier_frac = static_cast<double>(bar.sum() - bs) / run_ns;
  out.merge_frac = static_cast<double>(mrg.sum() - ms) / run_ns;
  out.table = std::max<std::size_t>(1, report.routing.max_entries_per_chip);
  return out;
}

volatile std::uint64_t g_sink = 0;

/// schedule_at + step at a fixed pending depth (BM_EventQueueChurn's loop).
double queue_ns(std::size_t depth) {
  sim::EventQueue q;
  Rng rng(2);
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule_at(static_cast<TimeNs>(rng.uniform_int(1'000'000)), [] {});
  }
  constexpr int kIters = 500'000;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    q.step();
    q.schedule_at(q.now() + 1 + static_cast<TimeNs>(rng.uniform_int(1000)),
                  [] {});
  }
  return static_cast<double>(now_ns() - t0) / kIters;
}

template <typename SliceT, typename Params>
double slice_ns(double input) {
  constexpr std::uint32_t kNeurons = 256;
  constexpr int kIters = 20'000;
  SliceT slice(kNeurons, Params{});
  const std::vector<Accum> in(kNeurons, Accum::from_double(input));
  std::vector<std::uint32_t> spikes;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    spikes.clear();
    slice.update(in, spikes);
    g_sink = g_sink + spikes.size();
  }
  return static_cast<double>(now_ns() - t0) / (kIters * double{kNeurons});
}

double lookup_ns(std::size_t entries) {
  router::MulticastTable table;
  for (std::size_t i = 0; i < entries; ++i) {
    table.add({static_cast<RoutingKey>(i << 11), 0xFFFFF800u,
               router::Route::to_core(1)});
  }
  Rng rng(1);
  std::vector<RoutingKey> keys(4096);
  for (auto& k : keys) k = static_cast<RoutingKey>(rng.uniform_int(entries) << 11);
  constexpr int kIters = 2'000'000;
  std::uint64_t hits = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kIters; ++i) {
    hits += table.lookup(keys[static_cast<std::size_t>(i) & 4095]).has_value();
  }
  const double ns = static_cast<double>(now_ns() - t0) / kIters;
  g_sink = g_sink + hits;
  return ns;
}

void write_trace(const SpanLog& log, const std::string& path) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  const std::int64_t base = log.spans.empty() ? 0 : log.spans.front().t0;
  for (std::size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"wirebench\", \"ph\": \"X\", \"pid\": 1, "
           "\"tid\": 1, \"ts\": "
        << json_number(static_cast<double>(s.t0 - base) / 1e3)
        << ", \"dur\": " << json_number(static_cast<double>(s.t1 - s.t0) / 1e3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"session\": " << s.session << "}}";
  }
  out << "\n]}\n";
}

/// Span durations in us: per call, and summed per session.
struct Layers {
  std::map<std::string, std::vector<double>> per_call;
  std::map<std::string, std::map<std::uint64_t, double>> per_session;

  explicit Layers(const SpanLog& log) {
    for (const Span& s : log.spans) {
      const double us = static_cast<double>(s.t1 - s.t0) / 1e3;
      per_call[s.name].push_back(us);
      per_session[s.name][s.session] += us;
    }
  }
  double call(const std::string& name) const {
    const auto it = per_call.find(name);
    return it == per_call.end() ? std::nan("") : median(it->second);
  }
  double session(const std::string& name) const {
    const auto it = per_session.find(name);
    if (it == per_session.end()) return std::nan("");
    std::vector<double> v;
    for (const auto& [sid, us] : it->second) v.push_back(us);
    return median(v);
  }
  double of(const std::string& name, std::uint64_t sid) const {
    const auto it = per_session.find(name);
    if (it == per_session.end()) return 0.0;
    const auto jt = it->second.find(sid);
    return jt == it->second.end() ? 0.0 : jt->second;
  }
};

}  // namespace

Result run_traced(const Options& opt) {
  Result r;
  r.workload = opt.workload;
  r.seed = opt.seed;
  r.trace = 1;
  r.host = host_fingerprint();

  const EngineProbe probe = probe_engine(opt.seed);

  const std::size_t n = sessions_for(opt.workload);
  std::vector<SessionPlan> plans;
  for (std::size_t i = 0; i < n; ++i) {
    plans.push_back(opt.workload == "chain"
                        ? chain_plan(mix(opt.seed, i % 64) % 1000000007ull)
                        : make_plan(opt.workload, mix(opt.seed, i)));
  }
  if (opt.workload == "longrun") plans[0] = longrun_plan(opt.seed);
  std::vector<std::uint64_t> refs;
  for (const auto& p : plans) {
    refs.push_back(reference_digest(p) ^ (opt.corrupt_reference ? 1 : 0));
  }
  const auto check = [&](std::size_t i, std::uint64_t got) {
    ++r.attempted;
    if (got != refs[i]) ++r.failed;
  };

  // Part 2: replay, rounds alternating recording on and off.
  SpanLog log;
  server::EnginePool pool;
  std::vector<double> round_on;
  std::vector<double> round_off;
  std::uint64_t events = 0;
  std::uint64_t synapses = 0;
  std::uint64_t sid = 0;
  for (int round = 0; round < 6; ++round) {
    log.recording = round % 2 == 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const Replayed rep = replay(plans[i], log, ++sid, pool);
      check(i, rep.digest);
      if (round == 0) {
        events += rep.events;
        synapses += rep.synapses;
      }
    }
    (log.recording ? round_on : round_off)
        .push_back(static_cast<double>(now_ns() - t0));
  }
  const Layers replayed(log);

  // A session's own build and run, per plan: what the embedded and wire
  // lifecycles spend beyond it is serving overhead.
  std::vector<double> own_work(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> per_round;
    for (int round = 0; round < 3; ++round) {
      const std::uint64_t s = static_cast<std::uint64_t>(round) * 2 * n + i + 1;
      double us = 0.0;
      for (const char* layer :
           {"neural.build", "core.machine", "map.load", "sim.slice"}) {
        us += replayed.of(layer, s);
      }
      per_round.push_back(us);
    }
    own_work[i] = median(per_round);
  }

  // Part 3: the embedded SessionServer API.
  SpanLog embedded;
  std::vector<double> sched_us;
  server::EnginePool::Stats engines;
  {
    server::SessionServer srv(server_config().session);
    // At least two sessions, so the pool has an engine to reuse.
    for (std::size_t k = 0; k < std::max<std::size_t>(n, 2); ++k) {
      const std::size_t i = k % n;
      const server::SessionSpec spec = parsed_spec(plans[i]);
      const std::int64_t t0 = now_ns();
      std::string error;
      server::SessionId id = server::kInvalidSession;
      {
        const Scope s(embedded, "server.open", 0, i + 1);
        id = srv.open_and_run(spec, plans[i].run, &error);
      }
      if (id == server::kInvalidSession) {
        throw std::runtime_error("embedded open: " + error);
      }
      std::uint64_t h = kDigestBasis;
      do {
        const Scope s(embedded, "server.drain", 0, i + 1);
        h = digest(srv.drain(id), h);
      } while (srv.busy(id));
      srv.wait(id);
      h = digest(srv.drain(id), h);
      {
        const Scope s(embedded, "server.close", 0, i + 1);
        srv.close(id);
      }
      sched_us.push_back(static_cast<double>(now_ns() - t0) / 1e3 -
                         own_work[i]);
      check(i, h);
    }
    engines = srv.stats().engines;
  }
  const Layers emb(embedded);

  // Part 4: the socket — ping on an idle connection, then unloaded
  // whole-lifecycle sessions for the session median.
  std::vector<double> ping_us;
  std::vector<double> wire_us;
  {
    net::NetServer server(server_config());
    net::Client client(server.port());
    for (int i = 0; i < 220; ++i) {
      const std::int64_t t0 = now_ns();
      if (client.request("ping").rfind("ok", 0) != 0) {
        throw std::runtime_error("ping failed");
      }
      if (i >= 20) ping_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    const std::size_t wire_n = 3 * n;
    for (std::size_t k = 0; k < wire_n; ++k) {
      const std::size_t i = k % n;
      const std::int64_t t0 = now_ns();
      const auto blocks =
          net::Client::split_response(client.batch({batch_frame(plans[i])}));
      wire_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      std::vector<neural::SpikeRecorder::Event> ev;
      if (blocks.size() < 2 || !net::parse_spikes(blocks[blocks.size() - 2], &ev)) {
        throw std::runtime_error("wire session failed");
      }
      check(i, digest(ev));
    }
  }
  const double session_us = median(wire_us);

  // Layers a wire session runs, as per-session medians.  place and route
  // are inside load; parse only runs for a client-described net.
  const bool parses = !plans[0].net_lines.empty();
  double layer_sum = 0.0;
  for (const char* layer : {"net.frame", "server.admit", "neural.build",
                            "core.machine", "map.load", "sim.slice",
                            "net.format"}) {
    layer_sum += replayed.session(layer);
  }
  if (parses) layer_sum += replayed.session("net.parse");
  const double build_us = replayed.session("neural.build");
  const double machine_us = replayed.session("core.machine");
  const double load_us = replayed.session("map.load");
  const double slices_us = replayed.session("sim.slice");
  std::vector<double> run_share;
  for (const auto& [s, us] : replayed.per_session.at("session")) {
    run_share.push_back(replayed.of("sim.slice", s) / us);
  }
  const double slice_total_us = [&] {
    double t = 0.0;
    for (double v : replayed.per_call.at("sim.slice")) t += v;
    return t;
  }();
  const std::uint64_t bio_ms = n * static_cast<std::uint64_t>(plans[0].run / kMillisecond);

  r.metrics = {
      {"net.frame_ns", replayed.call("net.frame") * 1e3, "ns"},
      {"net.ping_rtt_us", median(ping_us), "us"},
      {"net.parse_us", replayed.call("net.parse"), "us"},
      {"server.admit_us", replayed.call("server.admit"), "us"},
      {"net.format_us", replayed.call("net.format"), "us"},
      {"server.open_us", emb.call("server.open"), "us"},
      {"server.close_us", emb.call("server.close"), "us"},
      {"server.sched_us", median(sched_us), "us"},
      {"server.pool_reuse_frac",
       static_cast<double>(engines.reused) /
           static_cast<double>(std::max<std::uint64_t>(
               1, engines.created + engines.reused)),
       "ratio"},
      {"server.drain_us", emb.call("server.drain"), "us"},
      {"neural.build_us", build_us, "us"},
      {"core.machine_us", machine_us, "us"},
      {"map.place_us", replayed.call("map.place"), "us"},
      {"map.route_us", replayed.call("map.route"), "us"},
      {"map.load_us", load_us, "us"},
      {"sim.slice_us", replayed.call("sim.slice"), "us"},
      {"sim.events_per_s",
       static_cast<double>(events) /
           (slice_total_us / 3.0 / 1e6),  // three recorded rounds
       "1/s"},
      {"sim.window_us", probe.window_us, "us"},
      {"sim.barrier_frac", probe.barrier_frac, "ratio"},
      {"sim.merge_frac", probe.merge_frac, "ratio"},
      {"sim.queue_ns", queue_ns(probe.pending), "ns"},
      {"neural.lif_ns", slice_ns<neural::LifSlice, neural::LifParams>(0.5), "ns"},
      {"neural.izh_ns", slice_ns<neural::IzhSlice, neural::IzhParams>(3.0), "ns"},
      {"router.lookup_ns", lookup_ns(probe.table), "ns"},
      {"sim.events_per_bio_ms",
       static_cast<double>(events) / static_cast<double>(bio_ms), "count"},
      {"map.synapses",
       static_cast<double>(synapses) / static_cast<double>(n), "count"},
      {"unaccounted_us", session_us - layer_sum, "us"},
      {"trace.overhead_pct",
       (median(round_on) - median(round_off)) / median(round_off) * 100.0,
       "%"},
  };
  r.detail = {
      {"wire_session_p50_us", session_us, "us"},
      {"serving_share", 1.0 - (build_us + machine_us + load_us + slices_us) /
                                  session_us, "ratio"},
      {"build_share", (build_us + machine_us + load_us) / session_us, "ratio"},
      {"run_share", median(run_share), "ratio"},
      {"probe_pending_events", static_cast<double>(probe.pending), "count"},
      {"probe_table_entries", static_cast<double>(probe.table), "count"},
      {"replayed_sessions", static_cast<double>(n), "count"},
      {"pool_created", static_cast<double>(engines.created), "count"},
      {"pool_reused", static_cast<double>(engines.reused), "count"},
  };
  // The reason each workload was chosen, checked against its threshold.
  if (opt.workload == "chain") {
    r.notes.push_back(std::string("chain serving_share >= 0.5: ") +
                      (r.detail[1].value >= 0.5 ? "met" : "NOT met"));
  } else if (opt.workload == "netdesc") {
    r.notes.push_back(std::string("netdesc build_share >= 0.5: ") +
                      (r.detail[2].value >= 0.5 ? "met" : "NOT met"));
  } else {
    r.notes.push_back(std::string("longrun run_share >= 0.7: ") +
                      (r.detail[3].value >= 0.7 ? "met" : "NOT met"));
  }
  r.correct = r.failed == 0;

  std::filesystem::create_directories(kOutDir);
  const std::string path = std::string(kOutDir) + "/trace-" + opt.workload +
                           "-seed" +
                           std::to_string(opt.seed) + ".json";
  SpanLog all = log;
  for (Span s : embedded.spans) {
    s.id += 1u << 30;  // keep ids distinct from the replay's
    s.session += 1u << 30;
    all.spans.push_back(s);
  }
  write_trace(all, path);
  r.notes.push_back("trace_file " + path);
  return r;
}

}  // namespace wirebench
