// The Ethernet attachment of a node to the Host System (Fig. 1).
//
// "SpiNNaker is conceived as a two-dimensional toroidal mesh of chip
// multiprocessors connected via Ethernet links to one or more host
// machines."  Only node (0,0)'s link is exercised by the boot protocol, but
// any node can carry one.  Model: a full-duplex frame pipe with Ethernet-ish
// latency and bandwidth; frames arrive at the attached chip's Monitor
// Processor.
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.hpp"
#include "router/packet.hpp"
#include "sim/simulator.hpp"

namespace spinn::mesh {

struct HostLinkConfig {
  TimeNs latency_ns = 50 * kMicrosecond;  // host stack + switch + driver
  double bits_per_sec = 100e6;            // 100 Mb/s Ethernet
  /// Modelled frame overhead per message (preamble, MAC, IP/UDP, SCP).
  int frame_overhead_bits = 8 * 64;
};

class HostLink {
 public:
  using ToNode = std::function<void(const router::Packet&)>;
  using ToHost = std::function<void(const router::Packet&)>;

  HostLink(sim::Simulator& sim, const HostLinkConfig& config)
      : sim_(sim), cfg_(config) {}

  /// Wire the node-side delivery (normally the chip's monitor handler).
  void set_to_node(ToNode sink) { to_node_ = std::move(sink); }
  /// Wire the host-side delivery (the host process model).
  void set_to_host(ToHost sink) { to_host_ = std::move(sink); }

  /// Host -> node(0,0).
  void send_to_node(const router::Packet& p) { send(p, /*to_node=*/true); }
  /// Node -> host.
  void send_to_host(const router::Packet& p) { send(p, /*to_node=*/false); }

  std::uint64_t frames_to_node() const { return frames_to_node_; }
  std::uint64_t frames_to_host() const { return frames_to_host_; }

 private:
  void send(const router::Packet& p, bool to_node) {
    const double bits =
        static_cast<double>(p.bits() + cfg_.frame_overhead_bits);
    const auto serialize =
        static_cast<TimeNs>(bits / cfg_.bits_per_sec * 1e9);
    // Each direction is an independent pipe; next_free serialises frames.
    TimeNs& next_free = to_node ? node_dir_free_ : host_dir_free_;
    const TimeNs start = std::max(next_free, sim_.now());
    next_free = start + serialize;
    const TimeNs arrival = start + serialize + cfg_.latency_ns;
    if (to_node) {
      ++frames_to_node_;
      sim_.at(arrival, [this, p] {
        if (to_node_) to_node_(p);
      });
    } else {
      ++frames_to_host_;
      sim_.at(arrival, [this, p] {
        if (to_host_) to_host_(p);
      });
    }
  }

  sim::Simulator& sim_;
  HostLinkConfig cfg_;
  ToNode to_node_;
  ToHost to_host_;
  TimeNs node_dir_free_ = 0;
  TimeNs host_dir_free_ = 0;
  std::uint64_t frames_to_node_ = 0;
  std::uint64_t frames_to_host_ = 0;
};

}  // namespace spinn::mesh
