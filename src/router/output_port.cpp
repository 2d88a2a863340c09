#include "router/output_port.hpp"

#include <cmath>

namespace spinn::router {

OutputPort::OutputPort(sim::Simulator& sim, const OutputPortConfig& config)
    : sim_(sim), cfg_(config) {}

bool OutputPort::try_enqueue(const Packet& p) {
  // A dead link's handshake makes no progress, so the output stage cannot
  // accept new work: this is how the router "senses when packets have
  // stopped flowing through a link" (§5.3) and starts its emergency timer.
  if (failed_) return false;
  if (depth() >= cfg_.fifo_depth) return false;
  fifo_.push_back(p);
  if (!busy_) start_service();
  return true;
}

void OutputPort::repair() {
  failed_ = false;
  if (!busy_ && !fifo_.empty()) start_service();
}

void OutputPort::start_service() {
  busy_ = true;
  in_flight_ = fifo_.pop_front();
  const double sec = static_cast<double>(in_flight_.bits()) / cfg_.bits_per_sec;
  const auto serialize_ns = static_cast<TimeNs>(std::ceil(sec * 1e9));
  sim_.after_as(serialize_ns, actor_, [this] { finish_service(); },
                sim::EventPriority::Fabric);
}

void OutputPort::finish_service() {
  if (failed_) {
    // The link died mid-transfer: the packet is stuck in the transmitter.
    // It will resume when the link is repaired.
    fifo_.push_front(in_flight_);
    busy_ = false;
    return;
  }
  ++sent_;
  const Packet delivered = in_flight_;
  busy_ = false;
  if (sink_) sink_(delivered);
  if (!fifo_.empty()) start_service();
}

}  // namespace spinn::router
