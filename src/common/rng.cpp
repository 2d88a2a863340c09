#include "common/rng.hpp"

#include <cmath>

namespace spinn {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  // Lemire's unbiased bounded generation (rejection on the low word).
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

std::uint32_t Rng::poisson(double mean) {
  if (mean <= 0.0) return 0;
  if (mean < 60.0) {
    // Knuth inversion.
    const double limit = std::exp(-mean);
    double product = uniform();
    std::uint32_t count = 0;
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction for large means.
  const double v = normal(mean, std::sqrt(mean)) + 0.5;
  return v <= 0.0 ? 0u : static_cast<std::uint32_t>(v);
}

double Rng::exponential(double rate) {
  // Guard against log(0).
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

double Rng::normal(double mean, double stddev) {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  spare_normal_ = radius * std::sin(theta);
  have_spare_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

Rng Rng::split() { return Rng(next()); }

Rng Rng::fork(std::uint64_t seed, std::uint64_t stream) {
  // Mix the stream id through SplitMix64 twice so adjacent streams land far
  // apart in seed space; (seed, stream) -> child seed is a pure function.
  SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ull * (stream + 1)));
  sm.next();
  return Rng(sm.next());
}

}  // namespace spinn
