#include "common/types.hpp"

#include <ostream>

namespace spinn {

std::ostream& operator<<(std::ostream& os, const ChipCoord& c) {
  return os << "(" << c.x << "," << c.y << ")";
}

const char* to_string(LinkDir d) {
  switch (d) {
    case LinkDir::East:
      return "E";
    case LinkDir::NorthEast:
      return "NE";
    case LinkDir::North:
      return "N";
    case LinkDir::West:
      return "W";
    case LinkDir::SouthWest:
      return "SW";
    case LinkDir::South:
      return "S";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, LinkDir d) {
  return os << to_string(d);
}

std::ostream& operator<<(std::ostream& os, const CoreId& id) {
  return os << id.chip << ":" << static_cast<int>(id.core);
}

}  // namespace spinn
