#include "router/router.hpp"

#include <utility>

namespace spinn::router {

namespace {

/// One port per link, built in place (a port cannot move).
template <std::size_t... L>
std::array<OutputPort, kLinksPerChip> make_ports(
    sim::Simulator& sim, const OutputPortConfig& config,
    std::index_sequence<L...>) {
  return {((void)L, OutputPort(sim, config))...};
}

}  // namespace

Router::Router(sim::Simulator& sim, ChipCoord coord,
               const RouterConfig& config)
    : sim_(sim),
      coord_(coord),
      cfg_(config),
      ports_(make_ports(sim, cfg_.port,
                        std::make_index_sequence<kLinksPerChip>{})) {}

void Router::set_actor(sim::ActorId actor) {
  actor_ = actor;
  for (auto& p : ports_) p.set_actor(actor);
}

void Router::receive(Packet p, std::optional<LinkDir> in) {
  ++counters_.received;
  ++p.hops;
  // One pass through the router pipeline, then route.
  sim_.after_as(cfg_.pipeline_latency_ns, actor_,
                [this, p, in] { dispatch(p, in); }, sim::EventPriority::Fabric);
}

void Router::dispatch(Packet p, std::optional<LinkDir> in) {
  switch (p.type) {
    case PacketType::Multicast:
      route_multicast(p, in);
      break;
    case PacketType::PointToPoint:
      route_p2p(p);
      break;
    case PacketType::NearestNeighbour:
      // nn packets terminate at the adjacent chip: monitor handles them.
      ++counters_.nn_delivered;
      if (monitor_sink_) monitor_sink_(p);
      break;
  }
}

void Router::route_multicast(Packet p, std::optional<LinkDir> in) {
  // A packet on the first leg of an emergency detour does not consult the
  // table: the intermediate router completes the triangle (Fig. 8).
  if (p.er == ErState::FirstLeg) {
    if (in.has_value()) {
      ++counters_.emergency_second_leg;
      p.er = ErState::SecondLeg;
      try_output(emergency_second_leg(*in), p);
      return;
    }
    p.er = ErState::Normal;  // malformed: locally injected; treat as normal
  }
  if (p.er == ErState::SecondLeg) {
    // Detour complete: this chip is the one the packet would have reached
    // over the blocked link.  For default routing to carry on straight, the
    // packet must be treated as if it had arrived on that link's port —
    // one step clockwise from the physical arrival port.
    if (in.has_value()) {
      in = static_cast<LinkDir>((static_cast<int>(*in) + 1) % kLinksPerChip);
    }
    p.er = ErState::Normal;
  }

  const std::optional<Route> hit = mc_table_.lookup(p.key);
  if (hit.has_value()) {
    deliver_route(p, *hit);
    return;
  }
  // Table miss => default routing: continue straight through.
  if (in.has_value()) {
    ++counters_.default_routed;
    try_output(opposite(*in), p);
    return;
  }
  // Locally-injected packet with no routing entry: nowhere to go.
  ++counters_.dropped_no_route;
  if (monitor_notify_) {
    monitor_notify_(RouterEvent{RouterEventType::PacketDropped, p,
                                LinkDir::East});
  }
}

void Router::deliver_route(const Packet& p, Route route) {
  for (int l = 0; l < kLinksPerChip; ++l) {
    const auto d = static_cast<LinkDir>(l);
    if (route.has_link(d)) try_output(d, p);
  }
  const CoreSet cores = route.cores();
  if (cores.empty()) return;
  counters_.delivered_local += static_cast<std::uint64_t>(cores.size());
  if (local_sink_) local_sink_(cores, p);
}

void Router::route_p2p(Packet p) {
  const P2pHop hop = p2p_table_.get(p.dst);
  if (hop == P2pHop::Local) {
    ++counters_.p2p_delivered;
    if (monitor_sink_) monitor_sink_(p);
    return;
  }
  if (hop == P2pHop::Drop || !p2p_table_.configured()) {
    ++counters_.dropped;
    return;
  }
  ++counters_.p2p_forwarded;
  try_output(link_of(hop), p);
}

void Router::send_nn(LinkDir d, Packet p) {
  p.type = PacketType::NearestNeighbour;
  try_output(d, p);
}

// ---- Blocked-output policy (§5.3) -----------------------------------------

void Router::try_output(LinkDir d, Packet p) {
  if (port(d).try_enqueue(p)) {
    ++counters_.forwarded;
    return;
  }
  // Stage 1: wait a programmable time, then look again.
  sim_.after_as(cfg_.emergency_wait_ns, actor_,
                [this, d, p] { retry_after_wait(d, p); },
                sim::EventPriority::Fabric);
}

void Router::retry_after_wait(LinkDir d, Packet p) {
  if (port(d).try_enqueue(p)) {
    ++counters_.forwarded;
    return;
  }
  try_emergency(d, p);
}

void Router::try_emergency(LinkDir d, Packet p) {
  if (cfg_.emergency_routing_enabled && p.type == PacketType::Multicast &&
      p.er == ErState::Normal) {
    Packet diverted = p;
    diverted.er = ErState::FirstLeg;
    const LinkDir leg = emergency_first_leg(d);
    if (port(leg).try_enqueue(diverted)) {
      ++counters_.forwarded;
      ++counters_.emergency_first_leg;
      if (monitor_notify_) {
        monitor_notify_(
            RouterEvent{RouterEventType::EmergencyInvoked, p, d});
      }
      return;
    }
  }
  // Stage 2: emergency path unavailable too; wait once more, then give up.
  sim_.after_as(cfg_.drop_wait_ns, actor_,
                [this, d, p] { final_attempt(d, p); },
                sim::EventPriority::Fabric);
}

void Router::final_attempt(LinkDir d, Packet p) {
  if (port(d).try_enqueue(p)) {
    ++counters_.forwarded;
    return;
  }
  if (cfg_.emergency_routing_enabled && p.type == PacketType::Multicast &&
      p.er == ErState::Normal) {
    Packet diverted = p;
    diverted.er = ErState::FirstLeg;
    if (port(emergency_first_leg(d)).try_enqueue(diverted)) {
      ++counters_.forwarded;
      ++counters_.emergency_first_leg;
      return;
    }
  }
  drop(d, p);
}

void Router::drop(LinkDir d, const Packet& p) {
  // "…then it gives up and drops the packet.  The local Monitor Processor
  // is informed of the failure, and can recover the packet and re-issue it
  // if appropriate."
  ++counters_.dropped;
  if (monitor_notify_) {
    monitor_notify_(RouterEvent{RouterEventType::PacketDropped, p, d});
  }
}

}  // namespace spinn::router
