// Allocation regression tests for the machine model.
//
// The machine's queues take storage on their first push and keep it, and
// the parts a chip has exactly one of live inside the chip.  So a component
// that has seen no traffic allocates nothing, and a busy run allocates
// nothing per packet.  These tests count calls to the global operator new,
// which this binary replaces; that replacement is why they are a test
// binary of their own.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "chip/chip.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "mesh/machine.hpp"
#include "net/client.hpp"
#include "noc/comms_noc.hpp"
#include "noc/system_noc.hpp"
#include "router/output_port.hpp"
#include "router/router.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// The array, nothrow and sized forms reach these through the standard
// library's defaults.  The deletes stay out of line: inlined, GCC's
// -Wmismatched-new-delete pairs their free() with the operator new call it
// can see at the same site.
void* operator new(std::size_t bytes) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace spinn {
namespace {

std::uint64_t news() { return g_news.load(std::memory_order_relaxed); }

TEST(Allocation, IdlePortsAndQueuesAllocateNothing) {
  sim::Simulator sim;
  const std::uint64_t before = news();
  router::OutputPort port(sim, router::OutputPortConfig{});
  noc::CommsNoc comms(sim, noc::CommsNocConfig{});
  noc::SystemNoc system(sim, noc::SystemNocConfig{});
  router::Router router(sim, ChipCoord{0, 0}, router::RouterConfig{});
  EXPECT_EQ(news() - before, 0u);
}

TEST(Allocation, ChipAllocatesOnlyItsCores) {
  // Ports, NoCs, router and every queue are members; each core is a heap
  // object, held by one vector.
  for (const CoreIndex cores : {CoreIndex{1}, CoreIndex{4}, kCoresPerChip}) {
    sim::Simulator sim;
    chip::ChipConfig cfg;
    cfg.num_cores = cores;
    Rng seeds(7);
    const std::uint64_t before = news();
    chip::Chip chip(sim, ChipCoord{0, 0}, cfg, seeds);
    EXPECT_EQ(news() - before, 1u + cores) << "cores=" << int{cores};
  }
}

TEST(Allocation, MachineAllocatesNothingPerLink) {
  // A 2x2 and a 4x4 machine differ only in chips; the per-chip cost is the
  // chip object plus what ChipAllocatesOnlyItsCores allows, so nothing is
  // spent per link or per port.
  constexpr CoreIndex kCores = 2;
  auto build = [](std::uint16_t side) {
    sim::SerialEngine engine;
    mesh::MachineConfig cfg;
    cfg.width = side;
    cfg.height = side;
    cfg.chip.num_cores = kCores;
    const std::uint64_t before = news();
    mesh::Machine machine(engine, cfg);
    return news() - before;
  };
  const std::uint64_t small = build(2);
  const std::uint64_t large = build(4);
  EXPECT_EQ(large - small, (16u - 4u) * (1u + 1u + kCores));
}

/// The wire benchmark's `longrun` net (1000 Poisson sources driving 3000
/// LIF and 2000 Izhikevich neurons, about 160k synapses) on a 6x6 machine
/// with 4 cores per chip, run on the serial engine.
SystemConfig longrun_config() {
  SystemConfig cfg;
  cfg.machine.width = 6;
  cfg.machine.height = 6;
  cfg.machine.chip.num_cores = 4;
  cfg.machine.chip.router.port.flight_ns = 1000;
  cfg.machine.seed = 1;
  return cfg;
}

neural::Network longrun_net() {
  net::NetBuilder b;
  b.poisson("noise", 1000, 30.0);
  b.lif("exc", 3000);
  b.izhikevich("izh", 2000);
  const auto w = neural::ValueDist::uniform(2.0, 6.0);
  const auto d = neural::ValueDist::uniform(1.0, 8.0);
  b.project("noise", "exc", neural::Connector::fixed_probability(0.02), w, d);
  b.project("noise", "izh", neural::Connector::fixed_probability(0.02), w, d);
  b.project("exc", "izh", neural::Connector::fixed_probability(0.005), w, d);
  b.project("izh", "exc", neural::Connector::fixed_probability(0.005), w, d,
            /*inhibitory=*/true);
  neural::Network net;
  std::string error;
  EXPECT_TRUE(neural::build(b.description(), &net, &error)) << error;
  return net;
}

TEST(Allocation, LoadAllocatesPerSliceNotPerRow) {
  // Each slice's synapses are staged in one growing buffer and its rows
  // built as one flat store, so a load's allocations follow its 24 slices
  // (about 1.4k in all), not its 54k rows: a vector per row cost 130k.
  System sys(longrun_config());
  const neural::Network net = longrun_net();
  const std::uint64_t before = news();
  const map::LoadReport report = sys.load(net);
  const std::uint64_t allocations = news() - before;
  ASSERT_TRUE(report.ok) << report.error;
  const std::size_t slices = report.placement.slices.size();
  // The rows must outnumber the bound for it to mean anything.
  ASSERT_GT(report.total_rows, 1000u * slices);
  EXPECT_LE(allocations, 100u * slices);
}

TEST(Allocation, WarmSerialRunAllocatesNothingPerPacket) {
  System sys(longrun_config());
  ASSERT_TRUE(sys.load(longrun_net()).ok);
  // Warm-up: every queue reaches its working depth, the recorder its
  // working capacity.
  sys.run(20 * kMillisecond);
  const std::uint64_t received = sys.fabric_totals().received;
  const std::uint64_t before = news();
  sys.run(10 * kMillisecond);
  const std::uint64_t allocations = news() - before;
  // The window must be packet-heavy for the bound to mean anything.
  ASSERT_GT(sys.fabric_totals().received - received, 10'000u);
  // What is left is amortised growth: the spike record doubling, a queue
  // reaching a new peak depth.
  EXPECT_LE(allocations, 40u);
}

}  // namespace
}  // namespace spinn
