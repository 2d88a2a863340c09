#include "noc/system_noc.hpp"

#include <cmath>
#include <utility>

namespace spinn::noc {

SystemNoc::SystemNoc(sim::Simulator& sim, const SystemNocConfig& config)
    : sim_(sim), cfg_(config) {}

void SystemNoc::transfer(std::uint32_t bytes, Completion done) {
  queue_.push_back(Request{bytes, std::move(done)});
  if (!busy_) start_next();
}

void SystemNoc::start_next() {
  if (queue_.empty()) return;
  busy_ = true;
  Request req = queue_.pop_front();

  const double burst_sec =
      static_cast<double>(req.bytes) / cfg_.bandwidth_bytes_per_sec;
  const TimeNs service = cfg_.first_word_latency_ns +
                         static_cast<TimeNs>(std::ceil(burst_sec * 1e9));
  busy_time_ += service;
  bytes_transferred_ += req.bytes;
  ++transfers_;

  in_service_ = std::move(req.done);
  sim_.after_as(service, actor_, [this] { finish_service(); });
}

void SystemNoc::finish_service() {
  // A transfer queued by the completion waits for start_next(): busy_ is
  // still set, so in_service_ is not replaced while it runs.
  if (in_service_) in_service_();
  in_service_ = Completion{};
  busy_ = false;
  start_next();
}

}  // namespace spinn::noc
