#include "net/server.hpp"

#include <stdexcept>
#include <string>
#include <thread>

#include "net/reactor.hpp"

namespace spinn::net {

namespace {

std::size_t resolve_reactor_count(const NetConfig& cfg) {
  if (cfg.reactors != 0) return cfg.reactors;
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t cap = hw == 0 ? 1 : hw;
  return cap < 4 ? cap : 4;
}

}  // namespace

NetServer::NetServer(const NetConfig& cfg)
    : cfg_(cfg), sessions_(cfg.session) {
  std::string error;
  listener_ = listen_loopback(cfg_.port, &port_, &error);
  if (!listener_) {
    throw std::runtime_error("net: cannot listen on 127.0.0.1:" +
                             std::to_string(cfg_.port) + " (" + error + ")");
  }
  const std::size_t n = resolve_reactor_count(cfg_);
  // Construct every reactor (epoll set + wakeup pipe, throws on fd
  // exhaustion) before starting any thread: a failed sibling must not
  // leak a running loop, and ~NetServer never runs on a half-built object.
  reactors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(*this, i));
  }
  for (auto& r : reactors_) r->start();
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  stopping_.store(true, std::memory_order_release);
  for (auto& r : reactors_) r->notify();
  // Serialise the joins: concurrent stop() calls must not both join the
  // same std::thread (UB); the loser waits for the winner's joins instead.
  MutexLock lk(&stop_mu_);
  for (auto& r : reactors_) r->join();
  // Only now is no deal in flight: reactor 0 may have dealt a socket to a
  // reactor whose loop had already exited.
  for (auto& r : reactors_) r->drop_handoffs();
}

NetStats NetServer::stats() const {
  // Frames before bytes: a reactor adds a frame's bytes before the frame,
  // so a frame this snapshot sees has its bytes in the later reads.
  NetStats out;
  out.frames_in = counters_.frames_in.value();
  out.frames_out = counters_.frames_out.value();
  out.bytes_in = counters_.bytes_in.value();
  out.bytes_out = counters_.bytes_out.value();
  out.accepted = counters_.accepted.value();
  out.refused = counters_.refused.value();
  out.shed_slow = counters_.shed_slow.value();
  out.shed_flood = counters_.shed_flood.value();
  out.batches = counters_.batches.value();
  out.faults = counters_.faults.value();
  out.connections = open_conns_.load(std::memory_order_relaxed);
  out.reactors = reactors_.size();
  return out;
}

}  // namespace spinn::net
