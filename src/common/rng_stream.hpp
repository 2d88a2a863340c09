// Rng's output sequence, generated in vector lanes.
//
// The loader's connectivity scan makes one draw per candidate synapse, and
// a scalar xoshiro256** step is bound by its own dependency chain.  This
// stream produces the same outputs, in the same order, eight lanes at a
// time: lane k of a block of 8 x L outputs starts at offset k * L of the
// block, so one vector step makes eight outputs that are L apart in the
// sequence, and an 8 x 8 transpose writes them back in sequence order.
// After a block every lane jumps 7 * L ahead, to its place in the next
// block.  A jump is a fixed linear map of the 256-bit state, applied as the
// jump polynomial x^N mod the generator's characteristic polynomial (the
// method of xoshiro's own jump()); tools/xoshiro_jumps.py derives the
// polynomials.
//
// Only the integer kernels (the block, the jump and the compare of
// chance_failures) are built for AVX-512F or AVX2, in rng_stream.cpp,
// which is the one file that decides what the CPU runs.  A CPU with
// neither has no stream: available() is false and callers keep Rng.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/rng.hpp"

namespace spinn {

class RngStream {
 public:
  static constexpr std::size_t kLanes = 8;
  /// Outputs per lane per block.
  static constexpr std::size_t kLaneOutputs = 4096;
  /// Outputs per block: the fewest draws worth a stream's setup.
  static constexpr std::size_t kBlock = kLanes * kLaneOutputs;

  /// Eight xoshiro256** states, word-major: lanes[w][k] is word w of lane k.
  using Lanes = std::array<std::array<std::uint64_t, kLanes>, 4>;

  /// True when this CPU runs a vector kernel (it reports AVX-512F or AVX2).
  static bool available();

  /// Continues `rng`'s sequence from where it stands.  Throws
  /// std::logic_error unless available().  `rng` must outlive the stream,
  /// and must not be drawn from while the stream lives.
  explicit RngStream(Rng& rng);
  /// Leaves `rng` after the stream's last output, exactly where the same
  /// draws made from `rng` itself would have left it.
  ~RngStream();
  RngStream(const RngStream&) = delete;
  RngStream& operator=(const RngStream&) = delete;
  RngStream(RngStream&&) = delete;
  RngStream& operator=(RngStream&&) = delete;

  /// The next output of the sequence: what rng.next() would return.
  std::uint64_t next() {
    if (pos_ == kBlock) refill();
    return buf_[pos_++];
  }

  /// Rng::uniform() of the next output.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Rng::uniform(lo, hi) of the next output.
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Rng::chance_failures(): the same count and the same draws.  Each
  /// trial tests one bit of a mask of the block's outputs below
  /// `chance.bound`, computed eight outputs per compare for the bound of
  /// the last call and recomputed from the current output when it changes.
  std::uint64_t chance_failures(const Chance& chance, std::uint64_t limit) {
    if (!chance.draws) return chance.succeeds ? 0 : limit;
    if (chance.bound != bound_) {
      bound_ = chance.bound;
      below_end_ = pos_ / 64 * 64;
    }
    std::uint64_t failures = 0;
    while (failures < limit) {
      if (pos_ >= below_end_) mark_below();
      // The trials this call still makes in pos_'s word of the mask, and
      // the failures before the word's first success (64 when none).
      const std::uint64_t span = std::min(64 - pos_ % 64, limit - failures);
      const auto miss = static_cast<std::uint64_t>(
          std::countr_zero(below_[pos_ / 64] >> (pos_ % 64)));
      if (miss < span) {
        pos_ += miss + 1;
        return failures + miss;
      }
      pos_ += span;
      failures += span;
    }
    return failures;
  }

 private:
  /// Generates the next block into buf_ and rewinds to its start.
  void refill();
  /// Extends below_ over the next few words from pos_'s, first refilling
  /// when the block is used up.
  void mark_below();

  Rng& rng_;
  std::unique_ptr<std::uint64_t[]> buf_;
  std::size_t pos_ = kBlock;  // next output in buf_; kBlock: none left
  /// Bit i of word i / 64 is set when buf_[i] < bound_, for the outputs
  /// before below_end_.
  std::array<std::uint64_t, kBlock / 64> below_{};
  std::size_t below_end_ = 0;
  std::uint64_t bound_ = 0;
  Lanes starts_{};  // the lanes at the start of the block in buf_
  Lanes lanes_{};   // the lanes at the start of the next block
};

}  // namespace spinn
