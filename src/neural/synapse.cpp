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

  // Count each neuron's synapses, then give every counted neuron a row, in
  // index order, spanning the next run of the synapse array.
  row_of_.assign(first_.back(), 0);
  for (const StagedSynapse& s : staged) ++row_of_[index_of(s.key)];
  const auto num_rows = static_cast<std::size_t>(std::count_if(
      row_of_.begin(), row_of_.end(), [](std::uint32_t n) { return n > 0; }));
  rows_.resize(num_rows);
  synapses_.resize(staged.size());
  std::size_t row = 0;
  std::size_t next = 0;
  for (std::uint32_t& entry : row_of_) {
    if (entry == 0) {
      entry = kNoRow;
      continue;
    }
    // Empty for now: the scatter below grows it to its count.
    rows_[row].synapses = std::span<Synapse>(synapses_.data() + next, 0);
    next += entry;
    entry = static_cast<std::uint32_t>(row++);
  }

  // Scatter in staged order, so each row keeps its synapses' generation
  // order: a stable counting sort.
  for (const StagedSynapse& s : staged) {
    SynapticRow& r = rows_[row_of_[index_of(s.key)]];
    const std::size_t n = r.synapses.size();
    r.synapses.data()[n] = s.synapse;
    r.synapses = std::span<Synapse>(r.synapses.data(), n + 1);
    r.plastic = r.plastic || s.synapse.plastic;
  }
}

}  // namespace spinn::neural
