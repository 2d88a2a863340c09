// The neural application kernel: the CoreProgram that implements Fig. 7 on
// every application core.
//
//  * packet received (priority 1): look up the source neuron's synaptic row
//    and schedule a DMA fetch from SDRAM;
//  * DMA complete (priority 2): walk the fetched row, accumulating weights
//    into the deferred-event input ring at each synapse's delay slot;
//  * 1 ms timer (priority 3): drain the ring slot for this tick, integrate
//    the neuron equations, and emit an AER multicast packet per spike.
//
// The handler return values are the instruction budgets of the equivalent
// hand-written ARM968 loops, so core busy time — and therefore real-time
// overruns (E11) — emerge from the workload.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chip/core.hpp"
#include "neural/input_ring.hpp"
#include "neural/neuron_models.hpp"
#include "neural/spike_record.hpp"
#include "neural/stdp.hpp"
#include "neural/synapse.hpp"

namespace spinn::neural {

/// Static configuration of one core's slice of the network.
struct SliceConfig {
  NeuronModel model = NeuronModel::Lif;
  std::uint32_t num_neurons = 0;
  LifParams lif;
  IzhParams izh;
  double poisson_rate_hz = 0.0;
  std::vector<std::vector<std::uint32_t>> spike_schedule;  // SpikeSourceArray
  /// AER key of this slice's neuron 0; neuron i emits key_base + i.
  RoutingKey key_base = 0;
  bool record = false;
  /// STDP parameters for plastic rows targeting this slice (§5.3
  /// write-back path).
  StdpParams stdp;
};

class NeuronApp final : public chip::CoreProgram {
 public:
  NeuronApp(SliceConfig config, std::shared_ptr<RowStore> rows,
            SpikeRecorder* recorder);

  std::uint64_t on_start(chip::CoreApi& api) override;
  std::uint64_t on_timer(chip::CoreApi& api) override;
  std::uint64_t on_packet(chip::CoreApi& api,
                          const router::Packet& p) override;
  std::uint64_t on_dma_done(chip::CoreApi& api,
                            const chip::DmaDone& d) override;

  const SliceConfig& config() const { return cfg_; }
  RowStore& rows() { return *rows_; }
  /// Membrane state, for engine-equivalence checks (null for source models).
  const LifSlice* lif() const { return lif_.get(); }
  const IzhSlice* izh() const { return izh_.get(); }
  std::uint64_t spikes_emitted() const { return spikes_emitted_; }
  std::uint64_t rows_processed() const { return rows_processed_; }
  std::uint64_t synaptic_events() const { return synaptic_events_; }
  std::uint64_t plastic_writebacks() const { return plastic_writebacks_; }

 private:
  std::uint64_t emit_spikes(chip::CoreApi& api,
                            const std::vector<std::uint32_t>& fired);
  /// Pair-based STDP over a fetched plastic row; returns the instruction
  /// cost of the update loop.
  std::uint64_t apply_stdp(SynapticRow row);

  SliceConfig cfg_;
  std::shared_ptr<RowStore> rows_;
  SpikeRecorder* recorder_;

  std::unique_ptr<LifSlice> lif_;
  std::unique_ptr<IzhSlice> izh_;
  InputRing ring_;
  std::uint32_t tick_ = 0;

  std::uint64_t spikes_emitted_ = 0;
  std::uint64_t rows_processed_ = 0;
  std::uint64_t synaptic_events_ = 0;
  std::uint64_t plastic_writebacks_ = 0;
  std::vector<std::uint32_t> fired_scratch_;
  /// Per-neuron last-spike tick (post-event history for STDP); -1 = never.
  std::vector<std::int32_t> last_post_tick_;
};

}  // namespace spinn::neural
