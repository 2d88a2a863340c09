#include "sim/simulator.hpp"

#include "sim/sharded_simulator.hpp"

namespace spinn::sim {

void Simulator::handoff(TimeNs delay, ActorId exec_actor, EventAction&& action,
                        EventPriority priority) {
  if (engine_ != nullptr) {
    engine_->post_handoff(*this, delay, exec_actor, std::move(action),
                          priority);
    return;
  }
  queue_.schedule_handoff(queue_.now() + delay, exec_actor, std::move(action),
                          priority);
}

void PeriodicProcess::start(TimeNs phase) {
  started_ = true;
  cancelled_ = false;
  sim_.after(phase, [this] { tick(); }, priority_);
}

void PeriodicProcess::tick() {
  if (cancelled_) return;
  body_();
  if (cancelled_) return;  // body may cancel
  sim_.after(period_, [this] { tick(); }, priority_);
}

}  // namespace spinn::sim
