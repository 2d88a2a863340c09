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

void CommsNoc::deliver(CoreIndex core, const router::Packet& p) {
  sim_.after_as(cfg_.delivery_latency_ns, actor_, [this, core, p] {
    if (core_sink_) core_sink_(core, p);
  }, sim::EventPriority::Fabric);
}

}  // namespace spinn::noc
