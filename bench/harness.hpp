// Shared macro-benchmark harness.
//
// Every bench_* binary (except the google-benchmark micro suite) routes its
// measurement through this harness so all of them speak one CLI and one
// machine-readable format:
//
//   ./bench_e02_link_codes                 # human-readable run, 1 rep
//   ./bench_e02_link_codes --reps 5 --warmup 1 --json out.json
//
// The harness times each registered section with std::chrono::steady_clock
// at nanosecond precision (min/mean/max over the repetitions, after the
// warmup runs are discarded) and benches can attach named domain metrics
// (deadlock rates, routing-table sizes, ...) from their last repetition.
// --quiet redirects stdout to /dev/null before anything runs, so the
// bench's report is suppressed and the timed sections always pay the same
// (null-sink) printf cost regardless of where output would have gone.
// With --json it writes one JSON object per binary, which bench_all.py
// aggregates into BENCH_<commit>.json — the perf trajectory that future
// optimisation PRs are measured against.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "neural/network.hpp"

namespace spinn::bench {

// Percentiles live in sim/stats.hpp (spinn::sim::percentile); benches that
// publish p50/p99 metrics include that directly rather than keeping a
// second interpolation rule here.

class Harness {
 public:
  Harness(std::string name, int argc, char** argv) : name_(std::move(name)) {
    const auto value_of = [&](int& i) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", name_.c_str(),
                     argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto int_value_of = [&](int& i) {
      const char* flag = argv[i];
      const char* text = value_of(i);
      char* end = nullptr;
      const long v = std::strtol(text, &end, 10);
      if (end == text || *end != '\0') {
        std::fprintf(stderr, "%s: %s expects an integer, got '%s'\n",
                     name_.c_str(), flag, text);
        std::exit(2);
      }
      return static_cast<int>(v);
    };
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--json") == 0) {
        json_path_ = value_of(i);
      } else if (std::strcmp(arg, "--reps") == 0) {
        reps_ = std::max(1, int_value_of(i));
      } else if (std::strcmp(arg, "--warmup") == 0) {
        warmup_ = std::max(0, int_value_of(i));
      } else if (std::strcmp(arg, "--quiet") == 0) {
        quiet_ = true;
      } else if (std::strcmp(arg, "--help") == 0) {
        std::printf(
            "usage: %s [--reps N] [--warmup N] [--json PATH] [--quiet]\n",
            name_.c_str());
        std::exit(0);
      } else {
        std::fprintf(stderr, "%s: unknown argument '%s'\n", name_.c_str(),
                     arg);
        std::exit(2);
      }
    }
    if (quiet_) {
      if (std::freopen("/dev/null", "w", stdout) == nullptr) {
        std::fprintf(stderr, "%s: cannot redirect stdout to /dev/null\n",
                     name_.c_str());
        std::exit(2);
      }
    }
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  bool quiet() const { return quiet_; }

  /// True while run() is executing the untimed warmup repetitions — lets a
  /// bench keep cold-start samples out of latency metrics it accumulates
  /// inside the section body.
  bool warming_up() const { return warming_up_; }

  // Runs `fn` warmup_ times untimed, then reps_ times timed, and records a
  // section with min/mean/max wall-clock nanoseconds per repetition.  The
  // bench's printed report (if any) repeats with the body; --quiet sends
  // it to /dev/null.  `min_reps` lets a bench demand repetitions even when
  // the CLI asked for one — for sections so short that a single sample is
  // mostly scheduler noise (the min over reps is the published time).
  template <class F>
  void run(const std::string& section, F&& fn, int min_reps = 1) {
    using clock = std::chrono::steady_clock;
    const int reps = std::max(reps_, min_reps);
    warming_up_ = true;
    for (int i = 0; i < warmup_; ++i) fn();
    warming_up_ = false;
    Section s;
    s.name = section;
    s.reps = reps;
    s.warmup = warmup_;
    for (int i = 0; i < reps; ++i) {
      const auto t0 = clock::now();
      fn();
      const auto t1 = clock::now();
      const auto ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
      s.ns_min = std::min(s.ns_min, ns);
      s.ns_max = std::max(s.ns_max, ns);
      s.ns_sum += ns;
    }
    sections_.push_back(std::move(s));
  }

  // Best (minimum) wall-clock of an already-run section, in milliseconds;
  // 0 if the section is unknown.  Lets later sections report speedups.
  double section_ms(const std::string& section) const {
    for (const Section& s : sections_) {
      if (s.name == section) return s.ns_min / 1e6;
    }
    return 0.0;
  }

  // Attaches a named scalar result (rate, count, percentage, ...) from the
  // bench's domain so the JSON trajectory can track quality metrics, not
  // just wall-clock time.
  void metric(const std::string& name, double value,
              const std::string& unit = "") {
    metrics_.push_back(Metric{name, unit, value});
  }

  // Emits the report; returns the process exit code (0) so main can end with
  // `return h.finish();`.
  int finish() {
    if (!quiet_) {
      for (const Section& s : sections_) {
        std::printf("[harness] %s/%s: reps=%d warmup=%d min=%.0f ns "
                    "mean=%.0f ns max=%.0f ns\n",
                    name_.c_str(), s.name.c_str(), s.reps, s.warmup, s.ns_min,
                    s.mean(), s.ns_max);
      }
    }
    if (!json_path_.empty()) {
      std::FILE* f = std::fopen(json_path_.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "%s: cannot open %s for writing\n", name_.c_str(),
                     json_path_.c_str());
        return 1;
      }
      write_json(f);
      std::fclose(f);
    }
    return 0;
  }

 private:
  struct Section {
    std::string name;
    int reps = 0;
    int warmup = 0;
    double ns_min = std::numeric_limits<double>::max();
    double ns_max = 0.0;
    double ns_sum = 0.0;
    double mean() const { return reps > 0 ? ns_sum / reps : 0.0; }
  };
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };

  static void write_escaped(std::FILE* f, const std::string& s) {
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        std::fputc('\\', f);
        std::fputc(c, f);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        std::fprintf(f, "\\u%04x", c);
      } else {
        std::fputc(c, f);
      }
    }
  }

  void write_json(std::FILE* f) const {
    std::fprintf(f, "{\"bench\":\"");
    write_escaped(f, name_);
    std::fprintf(f, "\",\"sections\":[");
    for (std::size_t i = 0; i < sections_.size(); ++i) {
      const Section& s = sections_[i];
      std::fprintf(f, "%s{\"name\":\"", i == 0 ? "" : ",");
      write_escaped(f, s.name);
      std::fprintf(f,
                   "\",\"reps\":%d,\"warmup\":%d,\"ns_min\":%.0f,"
                   "\"ns_mean\":%.0f,\"ns_max\":%.0f}",
                   s.reps, s.warmup, s.ns_min, s.mean(), s.ns_max);
    }
    std::fprintf(f, "],\"metrics\":[");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f, "%s{\"name\":\"", i == 0 ? "" : ",");
      write_escaped(f, m.name);
      std::fprintf(f, "\",\"unit\":\"");
      write_escaped(f, m.unit);
      std::fprintf(f, "\",\"value\":%.17g}", m.value);
    }
    std::fprintf(f, "]}\n");
  }

  std::string name_;
  std::string json_path_;
  int reps_ = 1;
  int warmup_ = 0;
  bool quiet_ = false;
  bool warming_up_ = false;
  std::vector<Section> sections_;
  std::vector<Metric> metrics_;
};

/// A bench's network: its description compiled by neural::build.  A
/// description that does not validate ends the bench with exit code 1.
inline neural::Network compile(const neural::NetworkDescription& desc) {
  neural::Network net;
  std::string error;
  if (!neural::build(desc, &net, &error)) {
    std::fprintf(stderr, "invalid network: %s\n", error.c_str());
    std::exit(1);
  }
  return net;
}

}  // namespace spinn::bench
