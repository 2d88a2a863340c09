// Synaptic connectivity data, organised as on the real machine: one
// *synaptic row* per (pre-synaptic neuron, target core), held in the node's
// SDRAM and DMA-fetched into DTCM when that neuron's spike packet arrives
// (§4, Fig. 4; §5.3).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
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

/// One synaptic row: a run of its core's synapse array, with the row's
/// STDP state beside it.
struct SynapticRow {
  /// The row's synapses, in the order the loader generated them.
  std::span<Synapse> synapses;
  /// The tick of the previous pre-synaptic spike that fetched this row
  /// (pre-event history for the deferred STDP rule).
  std::uint32_t last_pre_tick = 0;
  bool has_fired_before = false;
  /// Any synapse in the row is plastic => the row is written back after
  /// processing (§5.3).
  bool plastic = false;

  /// DMA size: one header word plus one 32-bit word per synapse.
  std::uint32_t bytes() const {
    return 4 + 4 * static_cast<std::uint32_t>(synapses.size());
  }
};

/// One synapse as the loader generates it: the AER key of its source
/// neuron, and the synapse.
struct StagedSynapse {
  RoutingKey key = 0;
  Synapse synapse;
};

/// All rows resident on one core, found by the source neuron's AER key
/// through the master population table of §5.3: a sorted table of the
/// source slices (key >> kNeuronKeyBits) that project to this core is
/// binary-searched, and the matching entry's range of one flat per-neuron
/// index gives the row.  Every row is a run in one contiguous synapse
/// array.  The store is built once, from the core's staged synapses;
/// looking up any key it was not built with misses.  (Physically the rows
/// live in the node's shared SDRAM; the table keeps the functional content
/// while chip::Sdram accounts the space.)
class RowStore {
 public:
  /// A store with no rows.
  RowStore() = default;

  /// Builds the rows of `staged`, the synapses aimed at this core in the
  /// order they were generated.  Each row keeps its synapses in that order.
  explicit RowStore(std::span<const StagedSynapse> staged);

  // Rows view synapses_, so a copy's rows would view the original's.
  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

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

  /// The rows' DMA sizes, summed: a header word per row and a word per
  /// synapse.
  std::uint64_t total_bytes() const {
    return 4ull * rows_.size() + 4ull * synapses_.size();
  }

 private:
  static constexpr std::uint32_t kNoRow =
      std::numeric_limits<std::uint32_t>::max();

  std::uint32_t lookup(RoutingKey key) const {
    const RoutingKey slice = key >> kNeuronKeyBits;
    const auto it = std::lower_bound(slices_.begin(), slices_.end(), slice);
    if (it == slices_.end() || *it != slice) return kNoRow;
    const auto i = static_cast<std::size_t>(it - slices_.begin());
    const std::size_t at = first_[i] + (key & ~kSliceKeyMask);
    return at < first_[i + 1] ? row_of_[at] : kNoRow;
  }

  /// The source slices with rows here, ascending.
  std::vector<RoutingKey> slices_;
  /// Source slice slices_[i]'s neurons own row_of_[first_[i]] up to
  /// row_of_[first_[i + 1]]: one entry per neuron up to the highest with a
  /// row.
  std::vector<std::uint32_t> first_;
  /// Per source neuron, the index of its row in rows_, or kNoRow.
  std::vector<std::uint32_t> row_of_;
  std::vector<SynapticRow> rows_;
  /// Every row's synapses, row after row.
  std::vector<Synapse> synapses_;
};

}  // namespace spinn::neural
