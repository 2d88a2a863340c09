// Shared pieces of the wire benchmark: the three workloads' session plans,
// the spike-stream digest the oracle compares, and small statistics and
// output helpers.  See README.md for what each workload stresses and why.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/spinnaker.hpp"

namespace wirebench {

using namespace spinn;

/// One session's wire request content and the spec it compiles to.  The
/// spec is what server::run_standalone replays as the reference.
struct SessionPlan {
  std::vector<std::string> net_lines;  // `net ... end`; empty for chain
  std::string open_line;               // `open app=... seed=...`
  server::SessionSpec spec;
  TimeNs run = 0;                      // biological time of the session
};

SessionPlan chain_plan(std::uint64_t seed);
/// A fresh seed-generated net: 2-5 populations, mixed connectors, some STDP.
SessionPlan netdesc_plan(std::uint64_t seed);
/// The ~6k-neuron, ~160k-synapse net on 6x6 chips, sharded engine.
SessionPlan longrun_plan(std::uint64_t seed);
SessionPlan make_plan(const std::string& workload, std::uint64_t seed);

/// Whole lifecycle in one frame: net block, open, run $, wait, drain, close.
std::string batch_frame(const SessionPlan& p);
/// Net block, open and `run $`: the streaming clients' first frame.
std::string open_frame(const SessionPlan& p);

std::uint64_t mix(std::uint64_t a, std::uint64_t b);

inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ull;
/// FNV-1a over (time, key) pairs; chain calls to digest a stream drained in
/// pieces.
std::uint64_t digest(const std::vector<neural::SpikeRecorder::Event>& events,
                     std::uint64_t h = kDigestBasis);
std::uint64_t reference_digest(const SessionPlan& p);

/// Linear-interpolation quantile (q in [0, 1]); NaN when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

std::int64_t now_ns();
double peak_rss_mb();

/// Host fingerprint: CPU model, hardware threads, build type and the ns of
/// a fixed calibration loop, so a result can be put down to host or code.
std::map<std::string, std::string> host_fingerprint();

/// The server every workload runs against: library defaults, except that
/// max_sessions covers the sessions in flight.
net::NetConfig server_config();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A run's result: printed one metric per line, then the JSON line the
/// driver reads; the result file adds fingerprint, series and detail.
struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  int trace = 0;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;  // recorded, not compared
  std::vector<double> completions_per_s;
  std::map<std::string, std::string> host;
  std::vector<std::string> notes;
};

std::string json_number(double v);
std::string json_string(const std::string& s);
/// Per-run result and trace files go here, inside the working directory.
inline constexpr const char* kOutDir = ".bench_out";

void emit(const Result& r);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double netdesc_rate = 0.0;
  bool corrupt_reference = false;
  bool capacity = false;
};

/// The traced run: per-layer timings from spans around each layer's calls.
Result run_traced(const Options& opt);

}  // namespace wirebench
