// Lightweight statistics used by fabric, boot and bench code: the exact
// sample percentile and a streaming mean/min/max/stddev, cheap enough to
// update on every packet event.  Binned latency distributions are
// obs::Histogram (obs/registry.hpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace spinn::sim {

/// Exact sample percentile with linear interpolation between order
/// statistics (the R-7 / NumPy "linear" rule): p in [0, 1] maps onto
/// position p * (n - 1) in the sorted samples.  Returns 0 for empty input
/// and the sample itself for single-sample input.  This is the one
/// percentile used by every bench harness; histogram-based estimates come
/// from obs::Histogram::percentile instead.
double percentile(std::vector<double> samples, double p);
class Summary {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double sum() const { return sum_; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const {
    return n_ ? min_ : 0.0;
  }
  double max() const {
    return n_ ? max_ : 0.0;
  }

  void reset() { *this = Summary{}; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace spinn::sim
