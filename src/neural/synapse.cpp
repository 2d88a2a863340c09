#include "neural/synapse.hpp"

namespace spinn::neural {

RowStore::RowStore(std::span<const StagedSynapse> staged) {
  // The master population table.  A source neuron's synapses arrive in a
  // run, and its neighbours' follow, so recording a slice only when it
  // differs from the previous synapse's keeps the unsorted list short.
  for (const StagedSynapse& s : staged) {
    const RoutingKey slice = s.key >> kNeuronKeyBits;
    if (slices_.empty() || slices_.back() != slice) slices_.push_back(slice);
  }
  std::sort(slices_.begin(), slices_.end());
  slices_.erase(std::unique(slices_.begin(), slices_.end()), slices_.end());

  // The position of a key's slice in slices_.  `at` caches the previous
  // synapse's, which is almost always this one's too.
  std::size_t at = 0;
  const auto slice_index = [&](RoutingKey key) {
    const RoutingKey slice = key >> kNeuronKeyBits;
    if (slices_[at] != slice) {
      at = static_cast<std::size_t>(
          std::lower_bound(slices_.begin(), slices_.end(), slice) -
          slices_.begin());
    }
    return at;
  };

  // Each slice's index spans its neurons up to the highest with a row.
  first_.assign(slices_.size() + 1, 0);
  for (const StagedSynapse& s : staged) {
    std::uint32_t& width = first_[slice_index(s.key) + 1];
    width = std::max(width, (s.key & ~kSliceKeyMask) + 1);
  }
  for (std::size_t i = 1; i < first_.size(); ++i) first_[i] += first_[i - 1];
  const auto index_of = [&](RoutingKey key) {
    return first_[slice_index(key)] + (key & ~kSliceKeyMask);
  };

  // Count indexed neuron i's synapses in begin_[i + 2], so that after the
  // running sum begin_[i + 1] is where its row starts.  The scatter
  // advances that entry past each synapse it places, leaving it where the
  // row ends: begin_[i + 1]'s final value.
  const std::size_t indexed = first_.back();
  begin_.assign(indexed + 2, 0);
  has_row_.assign((indexed + 63) / 64, 0);
  bool any_plastic = false;
  for (const StagedSynapse& s : staged) {
    const std::size_t i = index_of(s.key);
    std::uint32_t& count = begin_[i + 2];
    if (count == 0) {
      has_row_[i / 64] |= std::uint64_t{1} << (i % 64);
      ++num_rows_;
    }
    ++count;
    any_plastic = any_plastic || s.synapse.plastic;
  }
  for (std::size_t i = 1; i < begin_.size(); ++i) begin_[i] += begin_[i - 1];

  // Scatter in staged order, so each row keeps its synapses' generation
  // order: a stable counting sort.
  synapses_.resize(staged.size());
  if (any_plastic) history_.resize(indexed);
  for (const StagedSynapse& s : staged) {
    const std::size_t i = index_of(s.key);
    synapses_[begin_[i + 1]++] = s.synapse;
    if (s.synapse.plastic) history_[i].plastic = true;
  }
  begin_.pop_back();
}

}  // namespace spinn::neural
