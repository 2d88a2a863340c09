// The SpiNNaker multicast packet router (§4, §5.2, §5.3, Fig. 8).
//
// Responsibilities modelled:
//  * multicast routing via the ternary key/mask table, with *default
//    routing* (straight through) on a miss;
//  * algorithmic point-to-point routing via the p2p table;
//  * nearest-neighbour packets to/from the six adjacent chips;
//  * the three-stage blocked-output policy of §5.3: wait a programmable
//    time, then try emergency routing around the triangle (Fig. 8) for a
//    programmable time, then drop the packet and tell the Monitor Processor
//    — "no Router will get into a state where it persistently refuses to
//    accept incoming packets".
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/types.hpp"
#include "common/units.hpp"
#include "router/output_port.hpp"
#include "router/packet.hpp"
#include "router/route.hpp"
#include "router/routing_table.hpp"
#include "sim/simulator.hpp"

namespace spinn::router {

struct RouterConfig {
  /// Router pipeline latency applied to every packet.
  TimeNs pipeline_latency_ns = 100;
  /// Programmable wait on a blocked output before invoking emergency
  /// routing (§5.3).
  TimeNs emergency_wait_ns = 400;
  /// Programmable wait in emergency mode before giving up and dropping.
  TimeNs drop_wait_ns = 400;
  bool emergency_routing_enabled = true;
  OutputPortConfig port;
};

/// Why the router is talking to the Monitor Processor.
enum class RouterEventType : std::uint8_t {
  EmergencyInvoked,  // a packet was diverted around a blocked link
  PacketDropped,     // a packet was discarded after both waits expired
};

struct RouterEvent {
  RouterEventType type;
  Packet packet;
  LinkDir blocked_link;
};

class Router {
 public:
  struct Counters {
    std::uint64_t received = 0;
    std::uint64_t forwarded = 0;          // copies pushed into output ports
    std::uint64_t delivered_local = 0;    // copies handed to local cores
    std::uint64_t default_routed = 0;     // mc table miss, straight through
    std::uint64_t emergency_first_leg = 0;
    std::uint64_t emergency_second_leg = 0;
    std::uint64_t dropped = 0;
    std::uint64_t dropped_no_route = 0;   // locally-injected mc with no entry
    std::uint64_t p2p_forwarded = 0;
    std::uint64_t p2p_delivered = 0;
    std::uint64_t nn_delivered = 0;
  };

  /// Deliver a packet to the application cores of a route on this chip.
  using LocalSink = std::function<void(CoreSet, const Packet&)>;
  /// Deliver to whichever core is currently Monitor (p2p Local hops, nn).
  using MonitorSink = std::function<void(const Packet&)>;
  /// Raise a router diagnostic at the Monitor Processor.
  using MonitorNotify = std::function<void(const RouterEvent&)>;

  Router(sim::Simulator& sim, ChipCoord coord, const RouterConfig& config);

  /// Scheduled events hold `this`: a router never moves.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  ChipCoord coord() const { return coord_; }

  MulticastTable& mc_table() { return mc_table_; }
  const MulticastTable& mc_table() const { return mc_table_; }
  P2pTable& p2p_table() { return p2p_table_; }
  const P2pTable& p2p_table() const { return p2p_table_; }

  OutputPort& port(LinkDir d) { return ports_[static_cast<int>(d)]; }
  const OutputPort& port(LinkDir d) const {
    return ports_[static_cast<int>(d)];
  }

  /// Ordering identity of the owning chip's event tree (set by the chip;
  /// cascades to the output ports).  Keeps the router's pipeline/retry
  /// events keyed engine-independently even when a foreign actor's event
  /// (boot-phase nn sends) pokes the router on an idle queue.
  void set_actor(sim::ActorId actor);

  void set_local_sink(LocalSink sink) { local_sink_ = std::move(sink); }
  void set_monitor_sink(MonitorSink sink) { monitor_sink_ = std::move(sink); }
  void set_monitor_notify(MonitorNotify notify) {
    monitor_notify_ = std::move(notify);
  }

  /// A packet arrives: either from the link `in` (the port on *this* chip it
  /// came in through), or injected by a local core (in == nullopt).
  void receive(Packet p, std::optional<LinkDir> in);

  /// Send a nearest-neighbour packet out of a specific link (boot traffic).
  void send_nn(LinkDir d, Packet p);

  const Counters& counters() const { return counters_; }

 private:
  void dispatch(Packet p, std::optional<LinkDir> in);
  void route_multicast(Packet p, std::optional<LinkDir> in);
  void route_p2p(Packet p);
  void deliver_route(const Packet& p, Route route);

  /// Three-stage output policy: normal -> wait -> emergency -> wait -> drop.
  void try_output(LinkDir d, Packet p);
  void retry_after_wait(LinkDir d, Packet p);
  void try_emergency(LinkDir d, Packet p);
  void final_attempt(LinkDir d, Packet p);
  void drop(LinkDir d, const Packet& p);

  sim::Simulator& sim_;
  ChipCoord coord_;
  sim::ActorId actor_ = sim::kRootActor;
  RouterConfig cfg_;
  MulticastTable mc_table_;
  P2pTable p2p_table_;
  std::array<OutputPort, kLinksPerChip> ports_;
  LocalSink local_sink_;
  MonitorSink monitor_sink_;
  MonitorNotify monitor_notify_;
  Counters counters_;
};

/// The triangle detour of Fig. 8: a packet that cannot leave via `blocked`
/// is sent out the next link anticlockwise...
constexpr LinkDir emergency_first_leg(LinkDir blocked) {
  return static_cast<LinkDir>((static_cast<int>(blocked) + 1) % kLinksPerChip);
}

/// ...and the intermediate router completes the second triangle side, which
/// is one step clockwise from the arrival port.
constexpr LinkDir emergency_second_leg(LinkDir arrival) {
  return static_cast<LinkDir>((static_cast<int>(arrival) + 1) % kLinksPerChip);
}

}  // namespace spinn::router
