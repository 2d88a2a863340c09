#include "neural/spike_record.hpp"

#include "sim/sharded_simulator.hpp"

namespace spinn::neural {

void SpikeRecorder::record(TimeNs time, RoutingKey key) {
  sim::Simulator* ctx = sim::ShardedSimulator::current_context();
  if (ctx == nullptr) {
    events_.push_back(Event{time, key});
    ++total_recorded_;
    return;
  }
  buffers_.at(ctx->shard())
      .push_back(Pending{ctx->queue().current_key(), Event{time, key}});
}

void SpikeRecorder::merge() {
  merging_.clear();
  for (auto& buf : buffers_) {
    merging_.insert(merging_.end(), buf.begin(), buf.end());
    buf.clear();
  }
  std::stable_sort(merging_.begin(), merging_.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.order < b.order;
                   });
  for (const Pending& p : merging_) events_.push_back(p.event);
  total_recorded_ += merging_.size();
}

}  // namespace spinn::neural
