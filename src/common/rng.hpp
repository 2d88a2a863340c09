// Deterministic pseudo-random number generation.
//
// The simulator must be bit-reproducible for a given seed: every stochastic
// model (glitch injection, Poisson spike sources, clock drift, connectivity
// wiring) draws from an explicitly-seeded generator that is passed in, never
// from global state (C++ Core Guidelines I.2: avoid non-const global
// variables).
#pragma once

#include <cmath>
#include <cstdint>

namespace spinn {

/// SplitMix64 — used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// A chance(p) trial as one integer compare per draw, for a p that many
/// trials share.  uniform() < p exactly when (next() >> 11) is below
/// ceil(p * 2^53), since scaling by 2^53 is exact, and so exactly when
/// next() is below that bound shifted back up by 11 bits.
struct Chance {
  explicit Chance(double p)
      : draws(!(p <= 0.0) && !(p >= 1.0)),
        succeeds(p >= 1.0),
        // p < 1 keeps the ceiling below 2^53, so the shift cannot overflow;
        // a NaN p gets bound 0, which no draw is below.
        bound(draws && !std::isnan(p)
                  ? static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53)) << 11
                  : 0) {}

  /// False for p <= 0 (every trial fails) and p >= 1 (every trial
  /// succeeds): like chance(), such a trial draws nothing.
  bool draws;
  /// The outcome of a trial that draws nothing.
  bool succeeds;
  /// A trial that draws x succeeds when x < bound.
  std::uint64_t bound;
};

/// xoshiro256** — fast, high-quality 64-bit generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EED5EED5EED5EEDull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  std::uint64_t next() { return step(s_[0], s_[1], s_[2], s_[3]); }
  result_type operator()() { return next(); }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Bernoulli trial with probability p.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// The number of consecutive chance(p) trials that fail, stopping at the
  /// first success or after `limit` failures.  Returns the count and leaves
  /// the generator exactly where that loop of chance(p) calls would: a
  /// result below `limit` means trial result + 1 succeeded.  Like chance(),
  /// it draws nothing for p <= 0 (every trial fails) or p >= 1 (the first
  /// succeeds), and a NaN p fails every trial, one draw each.
  std::uint64_t chance_failures(double p, std::uint64_t limit) {
    return chance_failures(Chance(p), limit);
  }

  /// chance_failures() with the trial's threshold computed once, for a
  /// caller that runs many scans at one p.
  std::uint64_t chance_failures(const Chance& chance, std::uint64_t limit) {
    if (!chance.draws) return chance.succeeds ? 0 : limit;
    // The state lives in locals for the whole scan, not behind `this`.
    std::uint64_t s0 = s_[0], s1 = s_[1], s2 = s_[2], s3 = s_[3];
    std::uint64_t failures = 0;
    while (failures < limit && step(s0, s1, s2, s3) >= chance.bound) {
      ++failures;
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
    return failures;
  }

  /// Poisson-distributed count with the given mean (inversion for small
  /// means, normal approximation above 60).
  std::uint32_t poisson(double mean);

  /// Exponentially-distributed interval with the given rate (events/unit).
  double exponential(double rate);

  /// Standard normal via Box–Muller.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Derive an independent child generator (for per-chip / per-core streams).
  /// Mutates this generator, so the result depends on how many draws/splits
  /// preceded it — use only on single-threaded, construction-order-stable
  /// paths.
  Rng split();

  /// Derive an independent stream keyed by (seed, stream) without any shared
  /// mutable state: fork(seed, s) is a pure function, so concurrent shards
  /// can each build their stream with no ordering between them and the
  /// result never depends on who forked first.  This is the atomic-friendly
  /// splitting used to seed the sharded engine's per-shard contexts.
  static Rng fork(std::uint64_t seed, std::uint64_t stream);

 private:
  friend class RngStream;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// One xoshiro256** step over the state words.
  static std::uint64_t step(std::uint64_t& s0, std::uint64_t& s1,
                            std::uint64_t& s2, std::uint64_t& s3) {
    const std::uint64_t result = rotl(s1 * 5, 7) * 9;
    const std::uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    return result;
  }

  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace spinn
