// The Communications NoC (§4, Fig. 3): carries spike-event packets between
// the 20 on-chip cores and the router.
//
// Model: an arbitrated injection port (cores -> router) serialised at the
// CHAIN fabric rate, and a fixed-latency delivery path (router -> core comms
// controller).  The injection side matters: 20 cores bursting spikes in the
// same timer tick contend for one router input.  A packet the router copies
// to several local cores is delivered to all of them by one event.
#pragma once

#include <cstdint>
#include <functional>

#include "common/ring_fifo.hpp"
#include "common/units.hpp"
#include "router/packet.hpp"
#include "router/route.hpp"
#include "sim/simulator.hpp"

namespace spinn::noc {

struct CommsNocConfig {
  double bits_per_sec = machine::kOnChipLinkBitsPerSec;
  TimeNs delivery_latency_ns = 50;  // router -> core comms controller
};

class CommsNoc {
 public:
  /// Downstream consumer of injected packets (the local router).
  using RouterSink = std::function<void(const router::Packet&)>;
  /// Delivery to a core's comms controller.
  using CoreSink = std::function<void(CoreIndex, const router::Packet&)>;

  CommsNoc(sim::Simulator& sim, const CommsNocConfig& config);

  /// Scheduled events hold `this`: a NoC never moves.
  CommsNoc(const CommsNoc&) = delete;
  CommsNoc& operator=(const CommsNoc&) = delete;

  void set_router_sink(RouterSink sink) { router_sink_ = std::move(sink); }
  void set_core_sink(CoreSink sink) { core_sink_ = std::move(sink); }

  /// Ordering identity of the owning chip's event tree (set by the chip).
  void set_actor(sim::ActorId actor) { actor_ = actor; }

  /// A core injects a packet towards the router.
  void inject(const router::Packet& p);

  /// The router delivers a packet to the cores `cores`: one event,
  /// delivery_latency_ns later, interrupts each core in index order.
  void deliver(router::CoreSet cores, const router::Packet& p);

  std::uint64_t injected() const { return injected_; }

 private:
  void start_next();

  sim::Simulator& sim_;
  sim::ActorId actor_ = sim::kRootActor;
  CommsNocConfig cfg_;
  RouterSink router_sink_;
  CoreSink core_sink_;
  RingFifo<router::Packet> inject_queue_;
  bool busy_ = false;
  std::uint64_t injected_ = 0;
};

}  // namespace spinn::noc
