// A test's network is a description compiled by neural::build, the only
// producer of a neural::Network; compile() fails the calling test when the
// description does not validate.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "neural/network.hpp"

namespace spinn::test {

inline neural::Network compile(const neural::NetworkDescription& desc) {
  neural::Network net;
  std::string error;
  EXPECT_TRUE(neural::build(desc, &net, &error)) << error;
  return net;
}

}  // namespace spinn::test
