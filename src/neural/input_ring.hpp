// The deferred-event input ring (§3.2).
//
// Electronic spike delivery is (biologically) instantaneous, but axonal
// delays are functional, so they are re-inserted *algorithmically at the
// target*: each arriving synaptic weight is accumulated into the ring slot
// for (current tick + synaptic delay) mod 16, and the timer handler drains
// the slot belonging to the tick it is computing.  The paper notes this is
// "one of the most expensive functions of the neuron models in terms of the
// cost of data storage held locally" — the ring is 16 x N accumulators in
// DTCM, held here as one flat buffer (slot s is accumulators [s*N, s*N+N)).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/fixed_point.hpp"

namespace spinn::neural {

class InputRing {
 public:
  static constexpr std::uint32_t kSlots = 16;

  explicit InputRing(std::uint32_t neurons)
      : neurons_(neurons),
        slots_(static_cast<std::size_t>(kSlots) * neurons),
        drained_(neurons) {}

  std::uint32_t neurons() const { return neurons_; }

  /// Accumulate `weight` for `neuron`, to arrive `delay` ticks after the
  /// current tick.  delay is clamped to [1, 15] as by the 4-bit field.
  void add(std::uint32_t current_tick, std::uint32_t neuron,
           std::uint8_t delay, Accum weight) {
    std::uint8_t d = delay;
    if (d < 1) d = 1;
    if (d > 15) d = 15;
    if (neuron < neurons_) {
      Accum& acc = slot((current_tick + d) % kSlots)[neuron];
      acc = Accum::saturating_add(acc, weight);
    }
  }

  /// Hand the accumulated input for `tick` to the caller and zero the slot
  /// (it becomes tick+16's slot).
  const std::vector<Accum>& drain(std::uint32_t tick) {
    Accum* s = slot(tick % kSlots);
    std::copy(s, s + neurons_, drained_.begin());
    std::fill(s, s + neurons_, Accum{});
    return drained_;
  }

  /// DTCM bytes consumed (the §3.2 storage-cost observation).
  std::uint64_t dtcm_bytes() const {
    return static_cast<std::uint64_t>(kSlots) * neurons_ * sizeof(std::int32_t);
  }

 private:
  Accum* slot(std::uint32_t s) {
    return slots_.data() + static_cast<std::size_t>(s) * neurons_;
  }

  std::uint32_t neurons_;
  std::vector<Accum> slots_;
  std::vector<Accum> drained_;
};

}  // namespace spinn::neural
