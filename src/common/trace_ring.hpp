// A bounded single-producer ring of fixed-width word records, readable by
// any thread while the producer keeps writing — the storage under the
// trace layer's per-thread event buffers (obs/trace.hpp).
//
// Concurrency contract:
//  * exactly ONE thread calls push() (the owning thread);
//  * any thread may call read()/size() at any time, including mid-push.
//
// Every slot carries its own sequence word (even = stable, odd = being
// written) and every payload word is an atomic, so a concurrent reader never
// performs a data race in the C++ memory model (TSan-clean by construction,
// not by luck).  A reader that catches a slot mid-overwrite simply discards
// it — bounded flight-recorder semantics: old events are overwritten, never
// blocked on.
//
// Ordering: the producer stores the odd sequence, then each payload word
// with release, so a reader that acquires a new payload word must then see
// at least the odd sequence on its second check and discard the record.  A
// relaxed payload store could become visible before the odd sequence on a
// weakly ordered CPU, pairing a new word with the old even sequence; x86
// keeps stores in order either way, and release costs nothing extra there.
//
// push() is allocation-free and lock-free (release stores only); all
// allocation happens in the constructor.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace spinn {

template <std::size_t Words>
class TraceRing {
 public:
  /// `capacity` slots, rounded up to a power of two (for cheap masking).
  explicit TraceRing(std::size_t capacity)
      : slots_(round_up_pow2(capacity)), mask_(slots_.size() - 1) {}

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer only.  Overwrites the oldest slot once full.
  // obs:hot — trace-record path: no locks, no allocation.
  void push(const std::uint64_t (&words)[Words]) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h & mask_];
    const std::uint64_t seq = s.seq.load(std::memory_order_relaxed);
    s.seq.store(seq + 1, std::memory_order_release);  // odd: in flight
    for (std::size_t w = 0; w < Words; ++w) {
      s.words[w].store(words[w], std::memory_order_release);
    }
    s.seq.store(seq + 2, std::memory_order_release);  // even: stable
    head_.store(h + 1, std::memory_order_release);
  }

  /// Total pushes so far (monotone; size on the ring is min(count, cap)).
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }

  /// Copy out every stable slot, oldest first.  Slots the producer is
  /// overwriting right now fail their sequence check and are skipped.
  std::vector<std::array<std::uint64_t, Words>> read() const {
    std::vector<std::array<std::uint64_t, Words>> out;
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n = mask_ + 1;
    const std::uint64_t first = h > n ? h - n : 0;
    out.reserve(static_cast<std::size_t>(h - first));
    for (std::uint64_t i = first; i < h; ++i) {
      const Slot& s = slots_[i & mask_];
      const std::uint64_t seq0 = s.seq.load(std::memory_order_acquire);
      if ((seq0 & 1) != 0) continue;  // mid-write
      std::array<std::uint64_t, Words> rec;
      for (std::size_t w = 0; w < Words; ++w) {
        rec[w] = s.words[w].load(std::memory_order_acquire);
      }
      if (s.seq.load(std::memory_order_relaxed) != seq0) continue;  // torn
      out.push_back(rec);
    }
    return out;
  }

  /// Drop everything (coordinator/test use; racing producers simply start
  /// refilling from slot zero).
  void clear() noexcept { head_.store(0, std::memory_order_release); }

 private:
  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t cap = 1;
    while (cap < n) cap <<= 1;
    return cap;
  }
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[Words] = {};
  };
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace spinn
