// The assembled SpiNNaker machine (Fig. 1): a WxH toroidal mesh of chips,
// inter-chip links wired between router output ports and neighbouring
// routers, an Ethernet host link on node (0,0), and fault injection for
// links and whole chips.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chip/chip.hpp"
#include "common/types.hpp"
#include "mesh/host_link.hpp"
#include "mesh/topology.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"

namespace spinn::mesh {

struct MachineConfig {
  std::uint16_t width = 8;
  std::uint16_t height = 8;
  chip::ChipConfig chip;
  HostLinkConfig host_link;
  std::uint64_t seed = 1;
};

class Machine {
 public:
  /// The engine partitions chips across shards (chip i is actor i+1); each
  /// chip receives its shard's context and cross-shard link traffic rides
  /// the engine's mailboxes.  On a SerialEngine every chip shares its one
  /// Simulator.
  Machine(sim::ISimulationEngine& engine, const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Ordering actor of the chip at linear index i.
  sim::ActorId actor_of(std::size_t chip_index) const {
    return static_cast<sim::ActorId>(chip_index + 1);
  }

  const Topology& topology() const { return topo_; }
  std::uint16_t width() const { return topo_.width(); }
  std::uint16_t height() const { return topo_.height(); }
  std::size_t num_chips() const { return topo_.num_chips(); }

  chip::Chip& chip_at(ChipCoord c) { return *chips_[topo_.index(c)]; }
  const chip::Chip& chip_at(ChipCoord c) const {
    return *chips_[topo_.index(c)];
  }

  HostLink& host_link() { return *host_link_; }

  /// Fault injection ------------------------------------------------------
  /// Fail the link leaving `c` in direction `d` and the reverse direction
  /// too: inter-chip links are physically one bundle.
  void fail_link(ChipCoord c, LinkDir d);
  void repair_link(ChipCoord c, LinkDir d);

  /// Kill a whole chip: cores stop, router stops forwarding.
  void fail_chip(ChipCoord c);
  bool chip_failed(ChipCoord c) const { return dead_[topo_.index(c)]; }

  /// Aggregate fabric counters across every router.
  struct FabricTotals {
    std::uint64_t received = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delivered_local = 0;
    std::uint64_t default_routed = 0;
    std::uint64_t emergency_first_leg = 0;
    std::uint64_t emergency_second_leg = 0;
    std::uint64_t dropped = 0;
  };
  FabricTotals fabric_totals() const;

  /// Start the 1 ms application timers machine-wide (each chip on its own
  /// drifting clock).
  void start_all_timers(TimeNs nominal_period = kBiologicalTick);
  void stop_all_timers();

 private:
  void wire_links();
  /// A packet leaves on inter-chip link `link` / lands at its far end.
  void depart(std::size_t link, const router::Packet& p);
  void arrive(std::size_t link, const router::Packet& p);

  Topology topo_;
  /// Per-chip scheduling context (all identical on a SerialEngine).
  std::vector<sim::Simulator*> ctx_;
  sim::Simulator* root_ctx_ = nullptr;
  std::vector<std::unique_ptr<chip::Chip>> chips_;
  /// Inter-chip link l leaves chip l / kLinksPerChip in direction
  /// l % kLinksPerChip and drives chip far_chip_[l].  A port's sink
  /// captures only `this` and l, which fits std::function's inline buffer.
  std::vector<std::size_t> far_chip_;
  std::vector<bool> dead_;
  std::unique_ptr<HostLink> host_link_;
};

}  // namespace spinn::mesh
