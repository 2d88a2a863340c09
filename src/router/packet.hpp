// SpiNNaker fabric packets (§4, §5.2).
//
// A packet is 40 bits on the wire: 8 bits of management data (type,
// emergency-routing state, payload flag, ...) plus a 32-bit body — the AER
// routing key for multicast packets, or 16-bit src/dst addresses for
// point-to-point packets.  An optional extra 32-bit payload doubles the
// body.  The three types of §5.2:
//   * multicast (mc)         — neural spike events, routed by key/mask TCAM;
//   * point-to-point (p2p)   — system management, routed algorithmically;
//   * nearest-neighbour (nn) — boot traffic to/from the six direct
//                              neighbours of a chip.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "common/units.hpp"

namespace spinn::router {

enum class PacketType : std::uint8_t {
  Multicast,
  PointToPoint,
  NearestNeighbour,
};

/// Emergency-routing state carried in the packet header (§5.3, Fig. 8).
enum class ErState : std::uint8_t {
  Normal = 0,
  /// Diverted around a blocked link; travelling the first triangle leg.
  FirstLeg = 1,
  /// Completed the detour; handled as normal at the next router.
  SecondLeg = 2,
};

/// Fields are ordered by alignment so the packet packs into 32 bytes: it is
/// copied into every FIFO slot and every event capture it rides in.
struct Packet {
  /// Simulation bookkeeping (not on the wire): when the source core
  /// emitted it.
  TimeNs launched_at = 0;

  /// Multicast AER key (valid when type == Multicast).
  RoutingKey key = 0;

  /// Optional 32-bit payload (nn boot words, p2p commands, debug).
  std::optional<std::uint32_t> payload;

  /// Simulation bookkeeping (not on the wire): routers traversed.
  std::uint32_t hops = 0;

  /// P2P addressing (valid when type == PointToPoint).
  P2pAddress src = 0;
  P2pAddress dst = 0;

  /// Extra payload words riding behind this packet (models a burst of nn
  /// packets carrying one flood-fill block as a single simulation event;
  /// the wire cost is still charged via bits()).
  std::uint16_t burst_words = 0;

  PacketType type = PacketType::Multicast;
  ErState er = ErState::Normal;

  /// Wire size: 40-bit base, +32 if a payload rides along, +32 per burst
  /// word.
  int bits() const {
    return 40 + (payload.has_value() ? 32 : 0) + 32 * burst_words;
  }
};

static_assert(sizeof(Packet) == 32, "Packet stays within 32 bytes");

}  // namespace spinn::router
