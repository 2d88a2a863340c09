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

}  // namespace spinn::sim
