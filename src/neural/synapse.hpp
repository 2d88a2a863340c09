// Synaptic connectivity data, organised as on the real machine: one
// *synaptic row* per (pre-synaptic neuron, target core), held in the node's
// SDRAM and DMA-fetched into DTCM when that neuron's spike packet arrives
// (§4, Fig. 4; §5.3).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// The STDP state of one row: the tick of the previous pre-synaptic spike
/// that fetched it (pre-event history for the deferred STDP rule), and
/// whether any of its synapses is plastic, so that the row is written back
/// after processing (§5.3).
struct RowHistory {
  std::uint32_t last_pre_tick = 0;
  bool has_fired_before = false;
  bool plastic = false;
};

/// One synaptic row, as a view into the RowStore that holds it: valid while
/// the store lives.  A lookup that misses returns a row with no synapses.
struct SynapticRow {
  /// The row's synapses, in the order the loader generated them.
  std::span<Synapse> synapses;
  /// The row's STDP state; null in a store that holds no plastic synapse.
  RowHistory* history = nullptr;

  bool plastic() const { return history != nullptr && history->plastic; }

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
/// binary-searched, and the matching entry's range of the store's indexed
/// neurons holds the source neuron.  Per indexed neuron the store keeps one
/// bit, set when the neuron has a row here, and one offset: its row is
/// synapses_[begin_[at], begin_[at + 1]), a run of one contiguous synapse
/// array.  Most spikes that reach a core find no row there, and a miss
/// reads only its bit.  The store is built once, from the core's staged
/// synapses; looking up any key it was not built with misses.  (Physically
/// the rows live in the node's shared SDRAM; the store keeps the functional
/// content while chip::Sdram accounts the space.)
class RowStore {
 public:
  /// A store with no rows.
  RowStore() = default;

  /// Builds the rows of `staged`, the synapses aimed at this core in the
  /// order they were generated.  Each row keeps its synapses in that order.
  explicit RowStore(std::span<const StagedSynapse> staged);

  /// The row of the source neuron with AER key `key`, which the caller may
  /// update (the row is "in DTCM"); a row with no synapses if it has none
  /// here.
  SynapticRow find(RoutingKey key) {
    const RoutingKey slice = key >> kNeuronKeyBits;
    const auto it = std::lower_bound(slices_.begin(), slices_.end(), slice);
    if (it == slices_.end() || *it != slice) return {};
    const auto i = static_cast<std::size_t>(it - slices_.begin());
    const std::size_t at = first_[i] + (key & ~kSliceKeyMask);
    if (at >= first_[i + 1]) return {};
    if (((has_row_[at / 64] >> (at % 64)) & 1) == 0) return {};
    return {std::span<Synapse>(synapses_.data() + begin_[at],
                               begin_[at + 1] - begin_[at]),
            history_.empty() ? nullptr : &history_[at]};
  }

  std::size_t num_rows() const { return num_rows_; }

  /// Master population table entries: the source slices with a row here.
  std::size_t num_slices() const { return slices_.size(); }

  /// The rows' DMA sizes, summed: a header word per row and a word per
  /// synapse.
  std::uint64_t total_bytes() const {
    return 4ull * num_rows_ + 4ull * synapses_.size();
  }

 private:
  /// The source slices with rows here, ascending.
  std::vector<RoutingKey> slices_;
  /// Source slice slices_[i]'s neurons are the indexed neurons first_[i] up
  /// to first_[i + 1]: one per neuron up to the highest with a row.
  std::vector<std::uint32_t> first_;
  /// Per indexed neuron, one bit: set when it has a row here.
  std::vector<std::uint64_t> has_row_;
  /// Per indexed neuron, where its row starts in synapses_, and one more
  /// entry: where the last row ends.
  std::vector<std::uint32_t> begin_;
  /// Every row's synapses, row after row.
  std::vector<Synapse> synapses_;
  /// Per indexed neuron, its row's STDP state; empty unless a synapse here
  /// is plastic.
  std::vector<RowHistory> history_;
  std::size_t num_rows_ = 0;
};

}  // namespace spinn::neural
