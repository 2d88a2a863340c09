// A route is the set of destinations a router copies a packet to: any of the
// six inter-chip links and/or any of the up-to-20 local cores.  Matches the
// output-vector format of the real multicast router.
#pragma once

#include <bit>
#include <cstdint>

#include "common/types.hpp"

namespace spinn::router {

/// The local cores a route copies a packet to: bit c is core c.
class CoreSet {
 public:
  constexpr CoreSet() = default;
  explicit constexpr CoreSet(std::uint32_t bits) : bits_(bits) {}

  static constexpr CoreSet of(CoreIndex core) { return CoreSet(1u << core); }
  constexpr CoreSet with(CoreIndex core) const {
    return CoreSet(bits_ | (1u << core));
  }

  constexpr bool empty() const { return bits_ == 0; }
  constexpr int size() const { return std::popcount(bits_); }

  /// Call `f(core)` for every member, lowest index first.
  template <typename F>
  constexpr void for_each(F&& f) const {
    for (std::uint32_t b = bits_; b != 0; b &= b - 1) {
      f(static_cast<CoreIndex>(std::countr_zero(b)));
    }
  }

  friend constexpr bool operator==(CoreSet, CoreSet) = default;

 private:
  std::uint32_t bits_ = 0;
};

class Route {
 public:
  constexpr Route() = default;
  explicit constexpr Route(std::uint32_t bits) : bits_(bits) {}

  static constexpr Route to_link(LinkDir d) {
    return Route(1u << static_cast<int>(d));
  }
  static constexpr Route to_core(CoreIndex core) {
    return Route(1u << (kLinksPerChip + core));
  }

  constexpr Route with_link(LinkDir d) const {
    return Route(bits_ | (1u << static_cast<int>(d)));
  }
  constexpr Route with_core(CoreIndex core) const {
    return Route(bits_ | (1u << (kLinksPerChip + core)));
  }

  constexpr bool has_link(LinkDir d) const {
    return (bits_ >> static_cast<int>(d)) & 1u;
  }
  constexpr bool has_core(CoreIndex core) const {
    return (bits_ >> (kLinksPerChip + core)) & 1u;
  }
  constexpr CoreSet cores() const {
    return CoreSet((bits_ >> kLinksPerChip) & ((1u << kCoresPerChip) - 1));
  }

  constexpr bool empty() const { return bits_ == 0; }
  constexpr std::uint32_t bits() const { return bits_; }

  constexpr Route operator|(Route other) const {
    return Route(bits_ | other.bits_);
  }
  Route& operator|=(Route other) {
    bits_ |= other.bits_;
    return *this;
  }

  friend constexpr bool operator==(Route, Route) = default;

 private:
  std::uint32_t bits_ = 0;
};

}  // namespace spinn::router
