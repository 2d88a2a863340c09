// Synaptic connectivity data, organised as on the real machine: one
// *synaptic row* per (pre-synaptic neuron, target core), held in the node's
// SDRAM and DMA-fetched into DTCM when that neuron's spike packet arrives
// (§4, Fig. 4; §5.3).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/types.hpp"

namespace spinn::neural {

/// One synapse as packed in a row word on the real platform:
/// weight (16 bits, fixed point), delay (4 bits, 1..15 ms), type (exc/inh),
/// target neuron index within the core's slice.
struct Synapse {
  std::uint16_t weight_raw = 0;  // unsigned magnitude, U8.8-ish scaling
  std::uint8_t delay = 1;        // in ms ticks; re-inserted at target (§3.2)
  bool inhibitory = false;
  bool plastic = false;          // weight is modified by STDP (§5.3)
  std::uint16_t target = 0;      // local neuron index on the target core

  Accum weight() const {
    // U8.8 -> S16.15.
    const auto raw =
        static_cast<std::int32_t>(weight_raw) << (Accum::kFractionBits - 8);
    return Accum::from_raw(inhibitory ? -raw : raw);
  }

  static std::uint16_t pack_weight(double w) {
    double mag = w < 0 ? -w : w;
    if (mag > 255.0) mag = 255.0;
    return static_cast<std::uint16_t>(mag * 256.0 + 0.5);
  }
};

/// The maximum synaptic delay the 4-bit field (and the 16-slot input ring)
/// supports.
inline constexpr std::uint8_t kMaxDelayTicks = 15;

struct SynapticRow {
  std::vector<Synapse> synapses;
  /// Any synapse in the row is plastic => the row is written back after
  /// processing (§5.3).
  bool plastic = false;
  /// The tick of the previous pre-synaptic spike that fetched this row
  /// (pre-event history for the deferred STDP rule).
  std::uint32_t last_pre_tick = 0;
  bool has_fired_before = false;

  /// DMA size: one header word plus one 32-bit word per synapse.
  std::uint32_t bytes() const {
    return 4 + 4 * static_cast<std::uint32_t>(synapses.size());
  }
};

/// All rows resident on one core, found by the source neuron's AER key
/// through the master population table of §5.3: a sorted table of the
/// source slices (key >> kNeuronKeyBits) that project to this core is
/// binary-searched, the matching entry's dense per-neuron index points into
/// a flat vector of rows.  Only row_for() grows the table; looking up any
/// other key misses.  (Physically the rows live in the node's shared SDRAM;
/// the table keeps the functional content while chip::Sdram accounts the
/// space.)
class RowStore {
 public:
  /// The row of `key`, created empty on first use.  The reference is
  /// invalidated by the next row_for().
  SynapticRow& row_for(RoutingKey key) {
    const RoutingKey slice = key >> kNeuronKeyBits;
    const auto it = std::lower_bound(slices_.begin(), slices_.end(), slice);
    const auto at_slice = static_cast<std::size_t>(it - slices_.begin());
    if (it == slices_.end() || *it != slice) {
      slices_.insert(it, slice);
      index_.emplace(index_.begin() + static_cast<std::ptrdiff_t>(at_slice));
    }
    std::vector<std::uint32_t>& neurons = index_[at_slice];
    const RoutingKey neuron = key & ~kSliceKeyMask;
    if (neuron >= neurons.size()) neurons.resize(neuron + 1, kNoRow);
    std::uint32_t& at = neurons[neuron];
    if (at == kNoRow) {
      at = static_cast<std::uint32_t>(rows_.size());
      rows_.emplace_back();
    }
    return rows_[at];
  }

  const SynapticRow* find(RoutingKey key) const {
    const std::uint32_t at = lookup(key);
    return at == kNoRow ? nullptr : &rows_[at];
  }

  /// Mutable lookup for plasticity processing (the row is "in DTCM").
  SynapticRow* find_mutable(RoutingKey key) {
    const std::uint32_t at = lookup(key);
    return at == kNoRow ? nullptr : &rows_[at];
  }

  std::size_t num_rows() const { return rows_.size(); }

  /// Master population table entries: the source slices with a row here.
  std::size_t num_slices() const { return slices_.size(); }

  std::uint64_t total_bytes() const {
    std::uint64_t total = 0;
    for (const SynapticRow& row : rows_) total += row.bytes();
    return total;
  }

 private:
  static constexpr std::uint32_t kNoRow =
      std::numeric_limits<std::uint32_t>::max();

  std::uint32_t lookup(RoutingKey key) const {
    const RoutingKey slice = key >> kNeuronKeyBits;
    const auto it = std::lower_bound(slices_.begin(), slices_.end(), slice);
    if (it == slices_.end() || *it != slice) return kNoRow;
    const std::vector<std::uint32_t>& neurons =
        index_[static_cast<std::size_t>(it - slices_.begin())];
    const RoutingKey neuron = key & ~kSliceKeyMask;
    return neuron < neurons.size() ? neurons[neuron] : kNoRow;
  }

  /// The source slices with rows here, ascending.
  std::vector<RoutingKey> slices_;
  /// index_[i][neuron] is the row of that neuron of source slice
  /// slices_[i], or kNoRow.
  std::vector<std::vector<std::uint32_t>> index_;
  std::vector<SynapticRow> rows_;
};

}  // namespace spinn::neural
