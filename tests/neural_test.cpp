// Tests for the neural substrate: LIF/Izhikevich dynamics in fixed point,
// the deferred-event input ring (§3.2), synapse packing and the compiled
// network that neural::build produces.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <vector>

#include "neural/input_ring.hpp"
#include "neural/network.hpp"
#include "neural/neuron_models.hpp"
#include "neural/synapse.hpp"
#include "network_util.hpp"

namespace spinn::neural {
namespace {

// ---- LIF -------------------------------------------------------------------

TEST(Lif, RestingNeuronStaysAtRest) {
  LifSlice slice(4, LifParams{});
  std::vector<Accum> input(4, Accum{});
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 100; ++t) slice.update(input, spikes);
  EXPECT_TRUE(spikes.empty());
  EXPECT_NEAR(slice.membrane(0).to_double(), -65.0, 0.1);
}

TEST(Lif, StrongInputCausesSpikeAndReset) {
  LifParams p;
  LifSlice slice(1, p);
  std::vector<Accum> input{Accum::from_double(30.0)};
  std::vector<std::uint32_t> spikes;
  slice.update(input, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], 0u);
  EXPECT_NEAR(slice.membrane(0).to_double(), p.v_reset.to_double(), 1e-3);
}

TEST(Lif, RefractoryPeriodSuppressesFiring) {
  LifParams p;
  p.refractory_ticks = 3;
  LifSlice slice(1, p);
  std::vector<Accum> input{Accum::from_double(30.0)};
  std::vector<std::uint32_t> spikes;
  slice.update(input, spikes);
  ASSERT_EQ(spikes.size(), 1u);
  // The next 3 ticks are refractory no matter the drive.
  for (int t = 0; t < 3; ++t) {
    spikes.clear();
    slice.update(input, spikes);
    EXPECT_TRUE(spikes.empty()) << "tick " << t;
  }
  spikes.clear();
  slice.update(input, spikes);
  EXPECT_EQ(spikes.size(), 1u) << "fires again after refractory";
}

TEST(Lif, MembraneDecaysTowardsRest) {
  LifParams p;
  LifSlice slice(1, p);
  slice.set_membrane(0, Accum::from_double(-55.0));
  std::vector<Accum> input(1, Accum{});
  std::vector<std::uint32_t> spikes;
  double prev_distance = 10.0;
  for (int t = 0; t < 20; ++t) {
    slice.update(input, spikes);
    const double distance =
        std::abs(slice.membrane(0).to_double() - p.v_rest.to_double());
    EXPECT_LT(distance, prev_distance + 1e-6);
    prev_distance = distance;
  }
  EXPECT_LT(prev_distance, 2.0);
}

TEST(Lif, FixedPointTracksDoubleReference) {
  // Integrate the same trajectory in double precision; S16.15 should track
  // within a few LSB-equivalents across 50 ms.
  LifParams p;
  LifSlice slice(1, p);
  double v_ref = p.v_rest.to_double();
  const double decay = p.decay.to_double();
  const double in = 1.0;  // steady state ~ -54.5 mV: stays sub-threshold
  std::vector<Accum> input{Accum::from_double(in)};
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 50; ++t) {
    slice.update(input, spikes);
    v_ref = p.v_rest.to_double() + (v_ref - p.v_rest.to_double()) * decay + in;
  }
  EXPECT_TRUE(spikes.empty());
  EXPECT_NEAR(slice.membrane(0).to_double(), v_ref, 0.05);
}

// ---- Izhikevich --------------------------------------------------------------

TEST(Izhikevich, RestingNeuronIsQuiet) {
  IzhSlice slice(1, IzhParams{});
  std::vector<Accum> input(1, Accum{});
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 200; ++t) slice.update(input, spikes);
  EXPECT_TRUE(spikes.empty());
}

TEST(Izhikevich, ToniceSpikingUnderCurrent) {
  IzhSlice slice(1, IzhParams{});
  std::vector<Accum> input{Accum::from_double(10.0)};
  std::vector<std::uint32_t> spikes;
  for (int t = 0; t < 500; ++t) slice.update(input, spikes);
  // Regular-spiking cell at I=10 fires repeatedly (~5-30 Hz-ish here).
  EXPECT_GE(spikes.size(), 3u);
  EXPECT_LE(spikes.size(), 200u);
}

TEST(Izhikevich, ResetAfterSpike) {
  IzhParams p;
  IzhSlice slice(1, p);
  std::vector<Accum> input{Accum::from_double(20.0)};
  std::vector<std::uint32_t> spikes;
  int guard = 0;
  while (spikes.empty() && guard++ < 1000) slice.update(input, spikes);
  ASSERT_FALSE(spikes.empty());
  EXPECT_LE(slice.membrane(0).to_double(), p.c.to_double() + 25.0)
      << "v must have been reset from the +30 mV peak";
}

// ---- input ring (deferred events, §3.2) --------------------------------------

TEST(InputRing, DeliversAtExactDelay) {
  InputRing ring(4);
  ring.add(/*current_tick=*/10, /*neuron=*/2, /*delay=*/5,
           Accum::from_double(1.5));
  // Nothing before tick 15.
  for (std::uint32_t t = 11; t < 15; ++t) {
    const auto& slot = ring.drain(t);
    EXPECT_DOUBLE_EQ(slot[2].to_double(), 0.0) << "tick " << t;
  }
  const auto& slot = ring.drain(15);
  EXPECT_DOUBLE_EQ(slot[2].to_double(), 1.5);
}

TEST(InputRing, AccumulatesMultipleArrivals) {
  InputRing ring(2);
  ring.add(0, 0, 3, Accum::from_double(1.0));
  ring.add(1, 0, 2, Accum::from_double(2.0));  // same arrival tick: 3
  const auto& slot = ring.drain(3);
  EXPECT_DOUBLE_EQ(slot[0].to_double(), 3.0);
}

TEST(InputRing, DrainClearsSlotForReuse) {
  InputRing ring(1);
  ring.add(0, 0, 1, Accum::from_double(1.0));
  EXPECT_DOUBLE_EQ(ring.drain(1)[0].to_double(), 1.0);
  // 16 ticks later the same physical slot must be clean.
  ring.add(16, 0, 1, Accum::from_double(0.25));
  EXPECT_DOUBLE_EQ(ring.drain(17)[0].to_double(), 0.25);
}

TEST(InputRing, DelayClampedToFourBitRange) {
  InputRing ring(1);
  ring.add(0, 0, /*delay=*/200, Accum::from_double(1.0));  // clamps to 15
  EXPECT_DOUBLE_EQ(ring.drain(15)[0].to_double(), 1.0);
  ring.add(20, 0, /*delay=*/0, Accum::from_double(1.0));  // clamps to 1
  EXPECT_DOUBLE_EQ(ring.drain(21)[0].to_double(), 1.0);
}

TEST(InputRing, DtcmCostIsSixteenWordsPerNeuron) {
  // §3.2 calls the delay storage "one of the most expensive functions of
  // the neuron models in terms of the cost of data storage".
  InputRing ring(256);
  EXPECT_EQ(ring.dtcm_bytes(), 256u * 16u * 4u);
}

/// Property sweep: any (delay, tick) combination delivers exactly once.
class RingDelayTest : public ::testing::TestWithParam<int> {};

TEST_P(RingDelayTest, ExactlyOnceDelivery) {
  const auto delay = static_cast<std::uint8_t>(GetParam());
  InputRing ring(1);
  const std::uint32_t start = 7;
  ring.add(start, 0, delay, Accum::from_double(1.0));
  int deliveries = 0;
  for (std::uint32_t t = start + 1; t < start + 17; ++t) {
    if (ring.drain(t)[0].to_double() != 0.0) {
      ++deliveries;
      EXPECT_EQ(t, start + delay);
    }
  }
  EXPECT_EQ(deliveries, 1);
}

INSTANTIATE_TEST_SUITE_P(AllDelays, RingDelayTest, ::testing::Range(1, 16));

// ---- synapses ----------------------------------------------------------------

TEST(Synapse, WeightPackingRoundTrip) {
  for (double w = 0.0; w < 200.0; w += 7.3) {
    Synapse s;
    s.weight_raw = Synapse::pack_weight(w);
    EXPECT_NEAR(s.weight().to_double(), w, 1.0 / 256.0 + 1e-9) << w;
  }
}

TEST(Synapse, InhibitoryWeightsAreNegative) {
  Synapse s;
  s.weight_raw = Synapse::pack_weight(2.0);
  s.inhibitory = true;
  EXPECT_DOUBLE_EQ(s.weight().to_double(), -2.0);
}

TEST(Synapse, RowBytesMatchWireFormat) {
  std::vector<Synapse> synapses(10);
  SynapticRow row;
  row.synapses = synapses;
  EXPECT_EQ(row.bytes(), 4u + 40u);
}

/// Appends `n` synapses from `key`.
void stage(std::vector<StagedSynapse>& staged, RoutingKey key, std::size_t n) {
  staged.insert(staged.end(), n, StagedSynapse{key, Synapse{}});
}

TEST(RowStore, FindAndAccounting) {
  std::vector<StagedSynapse> staged;
  stage(staged, 100, 3);
  stage(staged, 200, 5);
  RowStore store(staged);
  EXPECT_EQ(store.num_rows(), 2u);
  EXPECT_EQ(store.find(100).synapses.size(), 3u);
  EXPECT_TRUE(store.find(999).synapses.empty());
  EXPECT_EQ(store.total_bytes(), (4 + 12) + (4 + 20u));
}

TEST(RowStore, MasterTableLookupsMissWithoutGrowing) {
  const RoutingKey slice3 = RoutingKey{3} << kNeuronKeyBits;
  const RoutingKey slice4 = RoutingKey{4} << kNeuronKeyBits;
  std::vector<StagedSynapse> staged;
  stage(staged, slice3 + 5, 2);
  stage(staged, slice3 + 1, 1);
  stage(staged, slice4 + 5, 3);  // same neuron, next slice
  RowStore store(staged);
  // A hit and misses within one source slice: between rows and past the
  // slice's last indexed neuron.
  EXPECT_EQ(store.find(slice3 + 5).synapses.size(), 2u);
  EXPECT_EQ(store.find(slice4 + 5).synapses.size(), 3u);
  EXPECT_TRUE(store.find(slice3 + 2).synapses.empty());
  EXPECT_TRUE(store.find(slice3 + 6).synapses.empty());
  // Unseen slices: below the table's slices, and past its end.
  EXPECT_TRUE(store.find(RoutingKey{1} << kNeuronKeyBits).synapses.empty());
  EXPECT_TRUE(store.find(RoutingKey{5} << kNeuronKeyBits).synapses.empty());
  EXPECT_TRUE(store.find(0xFFFFFFFFu).synapses.empty());
  // Lookups never add rows; two lookups of a known key reach one row.
  EXPECT_EQ(store.num_rows(), 3u);
  EXPECT_EQ(store.find(slice3 + 5).synapses.data(),
            store.find(slice3 + 5).synapses.data());
  EXPECT_EQ(store.num_rows(), 3u);
  EXPECT_EQ(store.total_bytes(), (4 + 8) + (4 + 4) + (4 + 12u));
}

TEST(RowStore, TableHoldsOnlyTheSourceSlicesThatProjectHere) {
  // One row from a high slice number takes one table entry, not one per
  // slice below it.
  const RoutingKey high = (RoutingKey{4095} << kNeuronKeyBits) + 63;
  std::vector<StagedSynapse> staged;
  stage(staged, high, 1);
  EXPECT_EQ(RowStore(staged).num_slices(), 1u);
  // Slices arriving out of order, including the highest the key layout
  // allows, each keep their rows.
  const RoutingKey low = (RoutingKey{7} << kNeuronKeyBits) + 2;
  const RoutingKey top = kSliceKeyMask;
  stage(staged, top, 3);
  stage(staged, low, 2);
  RowStore store(staged);
  EXPECT_EQ(store.num_slices(), 3u);
  EXPECT_EQ(store.num_rows(), 3u);
  EXPECT_EQ(store.find(high).synapses.size(), 1u);
  EXPECT_EQ(store.find(low).synapses.size(), 2u);
  EXPECT_EQ(store.find(top).synapses.size(), 3u);
  EXPECT_TRUE(store.find(RoutingKey{100} << kNeuronKeyBits).synapses.empty());
  EXPECT_EQ(store.num_slices(), 3u);
}

TEST(RowStore, RowKeepsGenerationOrderAcrossInterleavedProjections) {
  // Two projections from one pre population onto one post population:
  // the second's synapses for a neuron arrive after every row of the first
  // was staged, so the row's synapses are not contiguous in the stage.
  const RoutingKey pre = RoutingKey{2} << kNeuronKeyBits;
  std::vector<StagedSynapse> staged;
  for (int proj = 0; proj < 2; ++proj) {
    for (RoutingKey n = 0; n < 3; ++n) {
      for (std::uint16_t t = 0; t < 2; ++t) {
        StagedSynapse s;
        s.key = pre + n;
        s.synapse.target = static_cast<std::uint16_t>(10 * proj + t);
        s.synapse.plastic = proj == 1 && n == 1;
        staged.push_back(s);
      }
    }
  }
  RowStore store(staged);
  EXPECT_EQ(store.num_rows(), 3u);
  EXPECT_EQ(store.num_slices(), 1u);
  for (RoutingKey n = 0; n < 3; ++n) {
    const SynapticRow row = store.find(pre + n);
    ASSERT_EQ(row.synapses.size(), 4u);
    EXPECT_EQ(row.synapses[0].target, 0u);
    EXPECT_EQ(row.synapses[1].target, 1u);
    EXPECT_EQ(row.synapses[2].target, 10u);
    EXPECT_EQ(row.synapses[3].target, 11u);
    // A row is plastic when any of its synapses is.
    EXPECT_EQ(row.plastic(), n == 1);
  }
  EXPECT_EQ(store.total_bytes(), 3u * (4 + 16));
}

bool same_synapse(const Synapse& a, const Synapse& b) {
  return a.weight_raw == b.weight_raw && a.delay == b.delay &&
         a.inhibitory == b.inhibitory && a.plastic == b.plastic &&
         a.target == b.target;
}

TEST(RowStore, MatchesAReferenceMapOnRandomStages) {
  std::mt19937 gen(20261018);
  const auto draw = [&](std::uint32_t lo, std::uint32_t hi) {
    return std::uniform_int_distribution<std::uint32_t>(lo, hi)(gen);
  };
  constexpr RoutingKey kNeurons = RoutingKey{1} << kNeuronKeyBits;
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE(trial);
    // A few source slices, any number in the key layout, each sending from
    // its neurons below a width that is sometimes the whole slice.
    std::vector<RoutingKey> slices(draw(1, 6));
    std::vector<RoutingKey> widths(slices.size());
    for (std::size_t i = 0; i < slices.size(); ++i) {
      slices[i] = draw(0, kSliceKeyMask >> kNeuronKeyBits);
      widths[i] = draw(0, 3) == 0 ? kNeurons : draw(1, 300);
    }
    // Synapses come in runs from one source neuron, as the loader makes
    // them; a neuron's runs may be apart, as two projections make them.
    std::map<RoutingKey, std::vector<Synapse>> reference;
    std::vector<StagedSynapse> staged;
    const std::uint32_t runs = draw(0, 400);
    for (std::uint32_t r = 0; r < runs; ++r) {
      const std::size_t i =
          draw(0, static_cast<std::uint32_t>(slices.size()) - 1);
      const RoutingKey key =
          (slices[i] << kNeuronKeyBits) + draw(0, widths[i] - 1);
      for (std::uint32_t n = draw(1, 5); n > 0; --n) {
        Synapse s;
        s.weight_raw = static_cast<std::uint16_t>(draw(0, 0xFFFF));
        s.delay = static_cast<std::uint8_t>(draw(1, kMaxDelayTicks));
        s.inhibitory = draw(0, 1) == 1;
        s.plastic = draw(0, 7) == 0;
        s.target = static_cast<std::uint16_t>(draw(0, kNeurons - 1));
        staged.push_back({key, s});
        reference[key].push_back(s);
      }
    }
    RowStore store(staged);
    std::uint64_t bytes = 0;
    for (const auto& [key, synapses] : reference) {
      bytes += 4 + 4 * synapses.size();
    }
    EXPECT_EQ(store.num_rows(), reference.size());
    EXPECT_EQ(store.total_bytes(), bytes);

    // Every neuron of every slice the stage used and of its neighbours:
    // keys inside a slice's indexed range, past its end, and in slices
    // that send nothing here.
    std::vector<RoutingKey> keys = {0, 0xFFFFFFFFu};
    for (const RoutingKey slice : slices) {
      for (const RoutingKey near : {slice - 1, slice, slice + 1}) {
        if (near > (kSliceKeyMask >> kNeuronKeyBits)) continue;
        for (RoutingKey n = 0; n < kNeurons; ++n) {
          keys.push_back((near << kNeuronKeyBits) + n);
        }
      }
    }
    for (const RoutingKey key : keys) {
      const SynapticRow row = store.find(key);
      const auto want = reference.find(key);
      if (want == reference.end()) {
        ASSERT_TRUE(row.synapses.empty()) << "key=" << key;
        continue;
      }
      ASSERT_EQ(row.synapses.size(), want->second.size()) << "key=" << key;
      bool plastic = false;
      for (std::size_t k = 0; k < row.synapses.size(); ++k) {
        ASSERT_TRUE(same_synapse(row.synapses[k], want->second[k]))
            << "key=" << key << " k=" << k;
        plastic = plastic || want->second[k].plastic;
      }
      EXPECT_EQ(row.plastic(), plastic) << "key=" << key;
    }
  }
}

TEST(RowStore, StoreWithoutAPlasticSynapseKeepsNoHistory) {
  std::vector<StagedSynapse> staged;
  stage(staged, 100, 3);
  stage(staged, 200, 5);
  RowStore store(staged);
  for (const RoutingKey key : {100u, 200u}) {
    const SynapticRow row = store.find(key);
    ASSERT_FALSE(row.synapses.empty());
    EXPECT_EQ(row.history, nullptr);
    EXPECT_FALSE(row.plastic());
  }
}

TEST(RowStore, PlasticRowKeepsOrderFlagAndHistoryAcrossFinds) {
  // A static projection, then a plastic one, each give neuron 0 a synapse;
  // neuron 1 has only the static one.
  const RoutingKey pre = RoutingKey{9} << kNeuronKeyBits;
  std::vector<StagedSynapse> staged;
  for (int proj = 0; proj < 2; ++proj) {
    for (RoutingKey n = 0; n < 2; ++n) {
      StagedSynapse s;
      s.key = pre + n;
      s.synapse.target = static_cast<std::uint16_t>(10 * proj + n);
      s.synapse.plastic = proj == 1;
      if (proj == 0 || n == 0) staged.push_back(s);
    }
  }
  RowStore store(staged);
  const SynapticRow row = store.find(pre);
  ASSERT_EQ(row.synapses.size(), 2u);
  EXPECT_EQ(row.synapses[0].target, 0u);
  EXPECT_FALSE(row.synapses[0].plastic);
  EXPECT_EQ(row.synapses[1].target, 10u);
  EXPECT_TRUE(row.synapses[1].plastic);
  EXPECT_TRUE(row.plastic());
  EXPECT_FALSE(store.find(pre + 1).plastic());

  // What one fetch of the row writes, the next fetch reads.
  ASSERT_NE(row.history, nullptr);
  EXPECT_FALSE(row.history->has_fired_before);
  row.history->last_pre_tick = 42;
  row.history->has_fired_before = true;
  row.synapses[1].weight_raw = 77;
  const SynapticRow again = store.find(pre);
  ASSERT_NE(again.history, nullptr);
  EXPECT_EQ(again.history->last_pre_tick, 42u);
  EXPECT_TRUE(again.history->has_fired_before);
  EXPECT_TRUE(again.plastic());
  EXPECT_EQ(again.synapses[1].weight_raw, 77u);
  const SynapticRow other = store.find(pre + 1);
  ASSERT_NE(other.history, nullptr);
  EXPECT_FALSE(other.history->has_fired_before);
}

// ---- neural::build: the only producer of a Network ---------------------------

TEST(Network, BuilderAssignsIds) {
  NetworkDescription desc;
  desc.populations.push_back(make_population("a", NeuronModel::Lif, 100));
  desc.populations.push_back(
      make_population("b", NeuronModel::PoissonSource, 50));
  desc.populations.back().rate_hz = 10.0;
  desc.populations.push_back(
      make_population("c", NeuronModel::Izhikevich, 7));
  const Network net = test::compile(desc);
  ASSERT_EQ(net.populations().size(), 3u);
  for (PopulationId id = 0; id < 3; ++id) {
    EXPECT_EQ(net.population(id).id, id) << "an id is its position";
  }
  EXPECT_EQ(net.population(0).name, "a");
  EXPECT_EQ(net.population(0).size, 100u);
  EXPECT_EQ(net.population(1).model, NeuronModel::PoissonSource);
  EXPECT_EQ(net.population(1).size, 50u);
  EXPECT_EQ(net.population(1).poisson_rate_hz, 10.0);
  EXPECT_EQ(net.population(2).model, NeuronModel::Izhikevich);
  // Recording defaults: modelled neurons record, background noise does not.
  EXPECT_TRUE(net.population(0).record);
  EXPECT_FALSE(net.population(1).record);
  EXPECT_TRUE(net.population(2).record);
  // A description's default parameters compile to the models' defaults.
  const LifParams lif;
  EXPECT_EQ(net.population(0).lif.v_rest.raw(), lif.v_rest.raw());
  EXPECT_EQ(net.population(0).lif.v_reset.raw(), lif.v_reset.raw());
  EXPECT_EQ(net.population(0).lif.v_thresh.raw(), lif.v_thresh.raw());
  EXPECT_EQ(net.population(0).lif.decay.raw(), lif.decay.raw());
  EXPECT_EQ(net.population(0).lif.r_scale.raw(), lif.r_scale.raw());
  EXPECT_EQ(net.population(0).lif.refractory_ticks, lif.refractory_ticks);
  const IzhParams izh;
  EXPECT_EQ(net.population(2).izh.a.raw(), izh.a.raw());
  EXPECT_EQ(net.population(2).izh.b.raw(), izh.b.raw());
  EXPECT_EQ(net.population(2).izh.c.raw(), izh.c.raw());
  EXPECT_EQ(net.population(2).izh.d.raw(), izh.d.raw());
}

TEST(Network, ConnectRecordsProjection) {
  NetworkDescription desc;
  desc.populations.push_back(make_population("a", NeuronModel::Lif, 10));
  desc.populations.push_back(make_population("b", NeuronModel::Lif, 10));
  desc.projections.push_back(make_projection(
      "a", "b", Connector::fixed_probability(0.5), ValueDist::fixed(1.0),
      ValueDist::uniform(1.0, 4.0), /*inhibitory=*/true));
  ProjectionDesc plastic =
      make_projection("b", "a", Connector::all_to_all(),
                      ValueDist::uniform(2.0, 3.0), ValueDist::fixed(2.0));
  plastic.stdp.enabled = true;
  plastic.stdp.a_plus = 0.5;
  plastic.stdp.window_ticks = 12;
  desc.projections.push_back(plastic);
  const Network net = test::compile(desc);
  ASSERT_EQ(net.projections().size(), 2u);
  const Projection& p = net.projections()[0];
  EXPECT_EQ(p.pre, 0u);
  EXPECT_EQ(p.post, 1u);
  EXPECT_TRUE(p.inhibitory);
  EXPECT_EQ(p.connector.kind, ConnectorKind::FixedProbability);
  EXPECT_EQ(p.connector.probability, 0.5);
  EXPECT_FALSE(p.connector.allow_self);
  EXPECT_EQ(p.weight.lo, 1.0);
  EXPECT_EQ(p.weight.hi, 1.0);
  EXPECT_EQ(p.delay_ms.lo, 1.0);
  EXPECT_EQ(p.delay_ms.hi, 4.0);
  EXPECT_FALSE(p.stdp.enabled);
  const Projection& q = net.projections()[1];
  EXPECT_EQ(q.pre, 1u);
  EXPECT_EQ(q.post, 0u);
  EXPECT_FALSE(q.inhibitory);
  EXPECT_EQ(q.connector.kind, ConnectorKind::AllToAll);
  EXPECT_EQ(q.weight.lo, 2.0);
  EXPECT_EQ(q.weight.hi, 3.0);
  EXPECT_TRUE(q.stdp.enabled);
  EXPECT_EQ(q.stdp.a_plus, 0.5);
  EXPECT_EQ(q.stdp.a_minus, StdpParams{}.a_minus);
  EXPECT_EQ(q.stdp.window_ticks, 12u);
}

TEST(Network, SpikeSourceScheduleStored) {
  NetworkDescription desc;
  PopulationDesc in = make_population("in", NeuronModel::SpikeSourceArray, 2);
  in.schedule = {{1, 5, 9}, {2}};
  desc.populations.push_back(in);
  const Network net = test::compile(desc);
  ASSERT_EQ(net.populations().size(), 1u);
  EXPECT_EQ(net.population(0).size, 2u);
  EXPECT_EQ(net.population(0).spike_schedule, in.schedule);
  EXPECT_TRUE(net.population(0).record);
}

TEST(ValueDist, FixedAndUniform) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(ValueDist::fixed(2.5).sample(rng), 2.5);
  const ValueDist u = ValueDist::uniform(1.0, 3.0);
  for (int i = 0; i < 100; ++i) {
    const double v = u.sample(rng);
    EXPECT_GE(v, 1.0);
    EXPECT_LT(v, 3.0);
  }
}

}  // namespace
}  // namespace spinn::neural
