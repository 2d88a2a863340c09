#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

#ifndef WIREBENCH_BUILD_TYPE
#define WIREBENCH_BUILD_TYPE "unknown"
#endif

namespace wirebench {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  SplitMix64 sm(a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull));
  sm.next();
  return sm.next();
}

SessionPlan chain_plan(std::uint64_t seed) {
  SessionPlan p;
  p.open_line = "open app=chain seed=" + std::to_string(seed);
  p.spec.app = "chain";
  p.spec.seed = seed;
  p.run = 10 * kMillisecond;
  return p;
}

namespace {

const char* kPopNames[] = {"p0", "p1", "p2", "p3", "p4"};

/// A connector giving at most about `target` synapses.
neural::Connector pick_connector(Rng& rng, std::uint32_t pre,
                                 std::uint32_t post, double target) {
  const auto pairs = static_cast<double>(pre) * post;
  const std::uint64_t kind = rng.uniform_int(4);
  if (kind == 0 && pairs <= target) return neural::Connector::all_to_all();
  if (kind == 1) return neural::Connector::one_to_one();
  return neural::Connector::fixed_probability(std::min(0.5, target / pairs));
}

}  // namespace

SessionPlan netdesc_plan(std::uint64_t seed) {
  Rng rng(mix(seed, 0x6e6574));
  net::NetBuilder b;
  const auto pops = static_cast<std::size_t>(2 + rng.uniform_int(4));
  std::vector<std::uint32_t> sizes;
  std::vector<bool> source;
  for (std::size_t i = 0; i < pops; ++i) {
    const auto n = static_cast<std::uint32_t>(100 + rng.uniform_int(301));
    // The first population drives the net; the last always models neurons,
    // so every net has a source and a target.
    std::uint64_t model = rng.uniform_int(4);
    if (i == 0) model = 2 + rng.uniform_int(2);
    if (i + 1 == pops) model = rng.uniform_int(2);
    switch (model) {
      case 0: b.lif(kPopNames[i], n); break;
      case 1: b.izhikevich(kPopNames[i], n); break;
      case 2: b.poisson(kPopNames[i], n, rng.uniform(5.0, 20.0)); break;
      default: {
        std::vector<std::vector<std::uint32_t>> trains(n);
        for (auto& t : trains) {
          if (rng.chance(0.2)) {
            t.push_back(static_cast<std::uint32_t>(1 + rng.uniform_int(9)));
          }
        }
        b.spike_source(kPopNames[i], std::move(trains));
      }
    }
    sizes.push_back(n);
    source.push_back(model >= 2);
  }
  std::vector<std::pair<std::size_t, std::size_t>> edges;  // (pre, post)
  for (std::size_t post = 1; post < pops; ++post) {
    if (source[post]) continue;
    const std::size_t fan_in = 1 + rng.uniform_int(std::min<std::size_t>(2, post));
    for (std::size_t k = 0; k < fan_in; ++k) {
      edges.emplace_back(rng.uniform_int(post), post);
    }
  }
  // Up to 45-65k synapses per net, shared by its projections: enough that
  // loading the rows outweighs the sparse 10 ms of activity and the serving
  // overhead, and no giant net sets the latency tail on its own.
  const double per_edge =
      rng.uniform(45000.0, 65000.0) / static_cast<double>(edges.size());
  for (const auto& [pre, post] : edges) {
    const neural::Connector conn =
        pick_connector(rng, sizes[pre], sizes[post], per_edge);
    const auto weight = neural::ValueDist::uniform(1.0, 4.0);
    const auto delay = neural::ValueDist::uniform(1.0, 4.0);
    if (!source[pre] && rng.chance(0.3)) {
      b.project(kPopNames[pre], kPopNames[post], conn, weight, delay,
                /*inhibitory=*/true);
    } else if (rng.chance(0.25)) {
      b.project_plastic(kPopNames[pre], kPopNames[post], conn, weight, delay,
                        neural::StdpParams{});
    } else {
      b.project(kPopNames[pre], kPopNames[post], conn, weight, delay);
    }
  }
  SessionPlan p;
  p.net_lines = b.lines();
  const std::uint64_t session_seed = mix(seed, 0x73656564) % 1000000007ull;
  p.open_line = "open app=@ width=4 height=4 seed=" +
                std::to_string(session_seed);
  p.spec.width = 4;
  p.spec.height = 4;
  p.spec.seed = session_seed;
  p.spec.net = std::make_shared<const neural::NetworkDescription>(
      b.description());
  p.run = 10 * kMillisecond;
  return p;
}

SessionPlan longrun_plan(std::uint64_t seed) {
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
  SessionPlan p;
  p.net_lines = b.lines();
  const std::uint64_t session_seed = mix(seed, 0x6c6f6e67) % 1000000007ull;
  p.open_line =
      "open app=@ width=6 height=6 cores=4 link_flight_ns=1000 "
      "engine=sharded shards=4 threads=2 seed=" +
      std::to_string(session_seed);
  p.spec.width = 6;
  p.spec.height = 6;
  p.spec.cores_per_chip = 4;
  p.spec.link_flight_ns = 1000;
  p.spec.engine = sim::EngineKind::Sharded;
  p.spec.shards = 4;
  p.spec.threads = 2;
  p.spec.seed = session_seed;
  p.spec.net = std::make_shared<const neural::NetworkDescription>(
      b.description());
  p.run = 100 * kMillisecond;
  return p;
}

SessionPlan make_plan(const std::string& workload, std::uint64_t seed) {
  if (workload == "chain") return chain_plan(seed);
  if (workload == "netdesc") return netdesc_plan(seed);
  if (workload == "longrun") return longrun_plan(seed);
  throw std::invalid_argument("unknown workload " + workload);
}

namespace {

std::string run_ms(const SessionPlan& p) {
  return std::to_string(p.run / kMillisecond);
}

std::string net_block(const SessionPlan& p) {
  std::string out;
  for (const std::string& line : p.net_lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace

std::string batch_frame(const SessionPlan& p) {
  return net_block(p) + p.open_line + "\nrun $ " + run_ms(p) +
         "\nwait $\ndrain $\nclose $";
}

std::string open_frame(const SessionPlan& p) {
  return net_block(p) + p.open_line + "\nrun $ " + run_ms(p);
}

std::uint64_t digest(const std::vector<neural::SpikeRecorder::Event>& events,
                     std::uint64_t h) {
  for (const auto& e : events) {
    const std::uint64_t words[2] = {static_cast<std::uint64_t>(e.time),
                                    static_cast<std::uint64_t>(e.key)};
    for (std::uint64_t w : words) {
      for (int i = 0; i < 8; ++i) {
        h ^= (w >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

std::uint64_t reference_digest(const SessionPlan& p) {
  return digest(server::run_standalone(p.spec, p.run));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

/// The CPU's brand string, from cpuid rather than a system file.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

}  // namespace

std::map<std::string, std::string> host_fingerprint() {
  std::map<std::string, std::string> h;
  h["cpu_model"] = cpu_model();
  h["nproc"] = std::to_string(std::thread::hardware_concurrency());
  h["build_type"] = WIREBENCH_BUILD_TYPE;
  // A fixed dependent-multiply loop: its time tracks the core's clock, not
  // the code under test.  Median of five.
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    const std::int64_t t0 = now_ns();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    runs.push_back(static_cast<double>(now_ns() - t0));
  }
  h["calibration_ns"] = json_number(median(runs));
  return h;
}

net::NetConfig server_config() {
  net::NetConfig cfg;
  cfg.session.max_sessions = 256;
  return cfg;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string metric_map(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": " +
           json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

void emit(const Result& r) {
  for (const Metric& m : r.metrics) {
    std::cout << "metric " << m.name << ' ' << json_number(m.value) << ' '
              << m.unit << '\n';
  }
  for (const Metric& m : r.detail) {
    std::cout << "detail " << m.name << ' ' << json_number(m.value) << ' '
              << m.unit << '\n';
  }
  for (const std::string& n : r.notes) std::cout << "note " << n << '\n';

  std::string file = "{\"workload\": " + json_string(r.workload) +
                     ", \"seed\": " + std::to_string(r.seed) +
                     ", \"trace\": " + std::to_string(r.trace) +
                     ", \"correct\": " + (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"host\": {";
  bool first = true;
  for (const auto& [k, v] : r.host) {
    file += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  file += "}, \"metrics\": " + metric_map(r.metrics) +
          ", \"detail\": " + metric_map(r.detail) +
          ", \"completions_per_s\": [";
  for (std::size_t i = 0; i < r.completions_per_s.size(); ++i) {
    file += (i ? ", " : "") + json_number(r.completions_per_s[i]);
  }
  file += "], \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    file += (i ? ", " : "") + json_string(r.notes[i]);
  }
  file += "]}\n";
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string path = std::string(kOutDir) + "/" + r.workload + "-seed" +
                           std::to_string(r.seed) + "-trace" +
                           std::to_string(r.trace) + ".json";
  std::ofstream(path) << file;
  std::cout << "result_file " << path << '\n';

  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << metric_map(r.metrics) << "}"
            << std::endl;
}

}  // namespace wirebench
