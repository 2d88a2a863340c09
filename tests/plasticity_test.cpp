// Tests for the §5.3 plastic-synapse path: STDP weight updates computed when
// a row is fetched into DTCM, and DMA write-back of the modified row.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "net/client.hpp"
#include "network_util.hpp"

namespace spinn {
namespace {

SystemConfig one_chip() {
  SystemConfig cfg;
  cfg.machine.width = 1;
  cfg.machine.height = 1;
  cfg.machine.chip.num_cores = 6;
  cfg.machine.chip.clock_drift_ppm_sigma = 0.0;
  cfg.mapper.neurons_per_core = 16;
  return cfg;
}

/// One pre-synaptic spike source drives one LIF through a plastic synapse
/// of weight w0, and a second strong "teacher" source forces the LIF to
/// fire at chosen ticks.
neural::Network pairing_net(std::vector<std::uint32_t> pre_ticks,
                            std::vector<std::uint32_t> teacher_ticks,
                            double w0, const neural::StdpParams& stdp) {
  net::NetBuilder b;
  b.spike_source("pre", {std::move(pre_ticks)});
  b.spike_source("teacher", {std::move(teacher_ticks)});
  b.lif("post", 1);
  b.project_plastic("pre", "post", neural::Connector::one_to_one(),
                    neural::ValueDist::fixed(w0),
                    neural::ValueDist::fixed(1.0), stdp);
  b.project("teacher", "post", neural::Connector::one_to_one(),
            neural::ValueDist::fixed(50.0), neural::ValueDist::fixed(1.0));
  return test::compile(b.description());
}

/// A harness that loads pairing_net() on one chip.
struct PairingRig {
  static constexpr neural::PopulationId pre = 0;
  static constexpr neural::PopulationId post = 2;
  System sys;
  neural::Network net;
  map::LoadReport report;
  neural::NeuronApp* post_app = nullptr;
  RoutingKey pre_key = 0;

  PairingRig(std::vector<std::uint32_t> pre_ticks,
             std::vector<std::uint32_t> teacher_ticks, double w0,
             const neural::StdpParams& stdp)
      : sys(one_chip()),
        net(pairing_net(std::move(pre_ticks), std::move(teacher_ticks), w0,
                        stdp)) {
    report = sys.load(net);
    // Locate the post app and the pre neuron's row key.
    const auto& slices = report.placement.slices;
    const RoutingKey post_base =
        slices[report.placement.by_population[post][0]].key_base;
    pre_key = slices[report.placement.by_population[pre][0]].key_base;
    for (auto* app : sys.apps()) {
      if (app->config().key_base == post_base) post_app = app;
    }
  }

  double weight_now() {
    const neural::SynapticRow row = post_app->rows().find(pre_key);
    if (row.synapses.empty()) return -1.0;
    return static_cast<double>(row.synapses[0].weight_raw) / 256.0;
  }
};

neural::StdpParams test_stdp() {
  neural::StdpParams p;
  p.enabled = true;
  p.a_plus = 0.5;
  p.a_minus = 0.4;
  p.window_ticks = 10;
  p.w_max = 8.0;
  return p;
}

TEST(Stdp, PrePostPairingPotentiates) {
  // pre at 5, teacher makes post fire ~6; pre again at 20 evaluates the
  // pairing (post after previous pre within the window => potentiate).
  PairingRig rig({5, 20}, {5}, /*w0=*/1.0, test_stdp());
  ASSERT_TRUE(rig.report.ok);
  ASSERT_NE(rig.post_app, nullptr);
  rig.sys.run(40 * kMillisecond);
  EXPECT_GT(rig.weight_now(), 1.2) << "pairing should potentiate by a_plus";
  EXPECT_GE(rig.post_app->plastic_writebacks(), 2u);
}

TEST(Stdp, PostPrePairingDepresses) {
  // Teacher fires post at ~3; pre arrives at 8 (post 5 ticks before pre
  // => depress).  No later post, so no potentiation.
  PairingRig rig({8}, {2}, /*w0=*/2.0, test_stdp());
  ASSERT_TRUE(rig.report.ok);
  rig.sys.run(30 * kMillisecond);
  EXPECT_LT(rig.weight_now(), 2.0);
  EXPECT_GT(rig.weight_now(), 1.0);  // one depression step of 0.4
}

TEST(Stdp, OutsideWindowNoChange) {
  // Post fires at ~3; pre arrives at 30 — far outside the 10-tick window.
  PairingRig rig({30}, {2}, /*w0=*/2.0, test_stdp());
  ASSERT_TRUE(rig.report.ok);
  rig.sys.run(50 * kMillisecond);
  EXPECT_NEAR(rig.weight_now(), 2.0, 1.0 / 256.0 + 1e-9);
}

TEST(Stdp, WeightsClampAtZero) {
  neural::StdpParams p = test_stdp();
  p.a_minus = 5.0;  // one depression would go negative
  PairingRig rig({8, 12}, {2, 6}, /*w0=*/1.0, p);
  ASSERT_TRUE(rig.report.ok);
  rig.sys.run(40 * kMillisecond);
  EXPECT_GE(rig.weight_now(), 0.0);
  EXPECT_LT(rig.weight_now(), 1.0);
}

TEST(Stdp, WeightsClampAtMax) {
  neural::StdpParams p = test_stdp();
  p.a_plus = 100.0;
  p.w_max = 4.0;
  // Repeated pre-post pairings.
  PairingRig rig({5, 15, 25, 35}, {5, 15, 25}, /*w0=*/1.0, p);
  ASSERT_TRUE(rig.report.ok);
  rig.sys.run(60 * kMillisecond);
  EXPECT_LE(rig.weight_now(), 4.0 + 1.0 / 256.0);
}

TEST(Stdp, StaticSynapsesUntouched) {
  // Same scenario but a static projection: weight must not move.
  SystemConfig cfg = one_chip();
  System sys(cfg);
  net::NetBuilder b;
  b.spike_source("pre", {{5, 20}});
  b.spike_source("t", {{5}});
  b.lif("post", 1);
  b.project("pre", "post", neural::Connector::one_to_one(),
            neural::ValueDist::fixed(1.0), neural::ValueDist::fixed(1.0));
  b.project("t", "post", neural::Connector::one_to_one(),
            neural::ValueDist::fixed(50.0), neural::ValueDist::fixed(1.0));
  const auto report = sys.load(test::compile(b.description()));
  ASSERT_TRUE(report.ok);
  sys.run(40 * kMillisecond);
  for (auto* app : sys.apps()) {
    EXPECT_EQ(app->plastic_writebacks(), 0u);
  }
}

TEST(Stdp, WritebackTrafficReachesSdram) {
  PairingRig rig({5, 20}, {5}, 1.0, test_stdp());
  ASSERT_TRUE(rig.report.ok);
  const std::uint64_t before =
      rig.sys.machine().chip_at({0, 0}).system_noc().bytes_transferred();
  rig.sys.run(40 * kMillisecond);
  const std::uint64_t after =
      rig.sys.machine().chip_at({0, 0}).system_noc().bytes_transferred();
  // Reads (row fetches) + writes (write-backs): at least 2 writebacks of
  // 8 bytes each beyond the reads.
  EXPECT_GT(after - before, 0u);
  EXPECT_GE(rig.post_app->plastic_writebacks(), 2u);
}

}  // namespace
}  // namespace spinn
