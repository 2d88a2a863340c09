#include "noc/comms_noc.hpp"

#include <cmath>

namespace spinn::noc {

CommsNoc::CommsNoc(sim::Simulator& sim, const CommsNocConfig& config)
    : sim_(sim), cfg_(config) {}

void CommsNoc::inject(const router::Packet& p) {
  inject_queue_.push_back(p);
  if (!busy_) start_next();
}

void CommsNoc::start_next() {
  if (inject_queue_.empty()) return;
  busy_ = true;
  const router::Packet p = inject_queue_.pop_front();
  const double sec = static_cast<double>(p.bits()) / cfg_.bits_per_sec;
  const auto serialize = static_cast<TimeNs>(std::ceil(sec * 1e9));
  sim_.after_as(serialize, actor_, [this, p] {
    ++injected_;
    if (router_sink_) router_sink_(p);
    busy_ = false;
    start_next();
  }, sim::EventPriority::Fabric);
}

void CommsNoc::deliver(router::CoreSet cores, const router::Packet& p) {
  // One event for every copy, and the order of events is that of one event
  // per core.  Per-core events would take consecutive sequence numbers of
  // one actor at the same (when, Fabric), so no other key could sort
  // between them; the later numbers of this actor shift but keep their
  // order.  Nor can a core's interrupt put an event between two copies,
  // because nothing a packet interrupt runs schedules an Interrupt-priority
  // event at zero delay: a handler lasts at least 1 ns
  // (ClockDomain::instruction_time clamps), and a DMA completion is
  // Default priority.
  sim_.after_as(cfg_.delivery_latency_ns, actor_, [this, cores, p] {
    if (!core_sink_) return;
    cores.for_each([&](CoreIndex c) { core_sink_(c, p); });
  }, sim::EventPriority::Fabric);
}

}  // namespace spinn::noc
