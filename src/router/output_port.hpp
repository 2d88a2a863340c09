// Model of one router output port driving an inter-chip link.
//
// The real fabric has almost no buffering: a port holds a couple of packets
// of pipeline slack and then exerts backpressure.  We model each port as a
// small FIFO drained at the link's serialization rate; a full FIFO is what
// the router perceives as a *blocked* output (the trigger for emergency
// routing, §5.3).  A failed link simply stops draining.
#pragma once

#include <cstdint>
#include <functional>

#include "common/ring_fifo.hpp"
#include "common/units.hpp"
#include "router/packet.hpp"
#include "sim/simulator.hpp"

namespace spinn::router {

struct OutputPortConfig {
  /// Packets of slack before the port blocks (pipeline registers + synchro).
  std::size_t fifo_depth = 4;
  /// Serialization rate of the link (bits/s); 2-of-7 NRZ inter-chip rate.
  double bits_per_sec = 250e6;
  /// Propagation delay to the far router's input.
  TimeNs flight_ns = 10;
};

class OutputPort {
 public:
  using Sink = std::function<void(const Packet&)>;

  OutputPort(sim::Simulator& sim, const OutputPortConfig& config);

  /// Scheduled events hold `this`: a port never moves.
  OutputPort(const OutputPort&) = delete;
  OutputPort& operator=(const OutputPort&) = delete;

  /// The sink runs when a packet's serialization ends (wire departure);
  /// the machine's wiring owns the flight to the far end.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Ordering identity of the owning chip's event tree.  Keys the port's
  /// events engine-independently even when the port is poked from a
  /// foreign actor's event (boot-phase sends).
  void set_actor(sim::ActorId actor) { actor_ = actor; }

  /// True if the port accepted the packet; false when blocked (full/failed
  /// with no room).
  bool try_enqueue(const Packet& p);

  /// Fault injection (§5.3: "the failure of an inter-chip link").
  void fail() { failed_ = true; }
  void repair();
  bool failed() const { return failed_; }

  /// Instantaneous occupancy (for congestion-sensing tests).
  std::size_t depth() const { return fifo_.size() + (busy_ ? 1u : 0u); }
  bool blocked() const { return depth() >= cfg_.fifo_depth; }

  std::uint64_t sent() const { return sent_; }

 private:
  void start_service();
  void finish_service();

  sim::Simulator& sim_;
  OutputPortConfig cfg_;
  sim::ActorId actor_ = sim::kRootActor;
  Sink sink_;
  RingFifo<Packet> fifo_;
  bool busy_ = false;     // a packet is currently serializing
  Packet in_flight_{};
  bool failed_ = false;
  std::uint64_t sent_ = 0;
};

}  // namespace spinn::router
