// Basic strong identifier types shared across the simulator.
//
// The SpiNNaker machine is addressed as a 2-D torus of chips, each holding up
// to 18..20 processor cores.  We use small strong types rather than bare
// integers so that chip coordinates, core indices and link directions cannot
// be interchanged by accident.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace spinn {

/// Index of a core within a chip (the real MPSoC has up to 20 ARM968 cores).
using CoreIndex = std::uint8_t;

/// Maximum number of application+monitor cores per chip (paper: "up to 20").
inline constexpr CoreIndex kCoresPerChip = 20;

/// Coordinates of a chip in the 2-D toroidal mesh (Fig. 1 / Fig. 2).
struct ChipCoord {
  std::uint16_t x = 0;
  std::uint16_t y = 0;

  friend constexpr auto operator<=>(const ChipCoord&, const ChipCoord&) = default;
};

std::ostream& operator<<(std::ostream& os, const ChipCoord& c);

/// The six inter-chip link directions of the triangular-facet mesh (Fig. 2).
/// Order matches the physical router port order on the real chip.
enum class LinkDir : std::uint8_t {
  East = 0,
  NorthEast = 1,
  North = 2,
  West = 3,
  SouthWest = 4,
  South = 5,
};

inline constexpr int kLinksPerChip = 6;

/// The link a packet arrives on at the far end of `d`.
constexpr LinkDir opposite(LinkDir d) {
  return static_cast<LinkDir>((static_cast<int>(d) + 3) % kLinksPerChip);
}

const char* to_string(LinkDir d);
std::ostream& operator<<(std::ostream& os, LinkDir d);

/// Globally-unique identifier of a core: chip coordinates plus core index.
struct CoreId {
  ChipCoord chip;
  CoreIndex core = 0;

  friend constexpr auto operator<=>(const CoreId&, const CoreId&) = default;
};

std::ostream& operator<<(std::ostream& os, const CoreId& id);

/// 16-bit point-to-point address used by p2p packets (8-bit x, 8-bit y).
using P2pAddress = std::uint16_t;

constexpr P2pAddress make_p2p_address(ChipCoord c) {
  return static_cast<P2pAddress>((c.x << 8) | (c.y & 0xFF));
}

constexpr ChipCoord chip_of_p2p(P2pAddress a) {
  return ChipCoord{static_cast<std::uint16_t>((a >> 8) & 0xFF),
                   static_cast<std::uint16_t>(a & 0xFF)};
}

/// 32-bit AER routing key carried in a multicast packet (§4: "32-bit
/// identifier of the neuron that fired").
using RoutingKey = std::uint32_t;

/// Key layout: the low kNeuronKeyBits bits index a neuron within its source
/// slice, the high bits number the slice.  Placement assigns keys this way,
/// and the synaptic-row table (neural::RowStore) looks them up by it.
inline constexpr int kNeuronKeyBits = 11;  // up to 2048 neurons per core
inline constexpr RoutingKey kSliceKeyMask =
    ~((RoutingKey{1} << kNeuronKeyBits) - 1);

}  // namespace spinn

template <>
struct std::hash<spinn::ChipCoord> {
  std::size_t operator()(const spinn::ChipCoord& c) const noexcept {
    return (static_cast<std::size_t>(c.x) << 16) | c.y;
  }
};

template <>
struct std::hash<spinn::CoreId> {
  std::size_t operator()(const spinn::CoreId& id) const noexcept {
    return (static_cast<std::size_t>(id.chip.x) << 24) |
           (static_cast<std::size_t>(id.chip.y) << 8) | id.core;
  }
};
