#include "neural/neuron_app.hpp"

namespace spinn::neural {

NeuronApp::NeuronApp(SliceConfig config, std::shared_ptr<RowStore> rows,
                     SpikeRecorder* recorder)
    : cfg_(std::move(config)),
      rows_(std::move(rows)),
      recorder_(recorder),
      ring_(cfg_.num_neurons),
      last_post_tick_(cfg_.num_neurons, -1) {
  if (!rows_) rows_ = std::make_shared<RowStore>();
  switch (cfg_.model) {
    case NeuronModel::Lif:
      lif_ = std::make_unique<LifSlice>(cfg_.num_neurons, cfg_.lif);
      break;
    case NeuronModel::Izhikevich:
      izh_ = std::make_unique<IzhSlice>(cfg_.num_neurons, cfg_.izh);
      break;
    default:
      break;  // sources keep no membrane state
  }
}

std::uint64_t NeuronApp::on_start(chip::CoreApi& api) {
  (void)api;
  // Zero the ring buffers, set up the VIC — a few hundred instructions.
  return 400;
}

std::uint64_t NeuronApp::emit_spikes(
    chip::CoreApi& api, const std::vector<std::uint32_t>& fired) {
  for (const std::uint32_t idx : fired) {
    const RoutingKey key = cfg_.key_base + idx;
    if (cfg_.record && recorder_ != nullptr) {
      recorder_->record(api.now(), key);
    }
    api.send_mc(key);
  }
  spikes_emitted_ += fired.size();
  return static_cast<std::uint64_t>(fired.size()) * kSpikeEmitInstr;
}

std::uint64_t NeuronApp::on_timer(chip::CoreApi& api) {
  std::uint64_t instr = 120;  // handler entry, timer ack, loop setup
  fired_scratch_.clear();

  switch (cfg_.model) {
    case NeuronModel::Lif: {
      const std::vector<Accum>& input = ring_.drain(tick_);
      lif_->update(input, fired_scratch_);
      instr += cfg_.num_neurons * kLifUpdateInstr;
      break;
    }
    case NeuronModel::Izhikevich: {
      const std::vector<Accum>& input = ring_.drain(tick_);
      izh_->update(input, fired_scratch_);
      instr += cfg_.num_neurons * kIzhUpdateInstr;
      break;
    }
    case NeuronModel::PoissonSource: {
      const double p = cfg_.poisson_rate_hz * 1e-3;  // spikes per ms
      for (std::uint32_t i = 0; i < cfg_.num_neurons; ++i) {
        if (api.rng().chance(p)) fired_scratch_.push_back(i);
      }
      instr += cfg_.num_neurons * kPoissonDrawInstr;
      break;
    }
    case NeuronModel::SpikeSourceArray: {
      for (std::uint32_t i = 0;
           i < cfg_.num_neurons && i < cfg_.spike_schedule.size(); ++i) {
        for (const std::uint32_t t : cfg_.spike_schedule[i]) {
          if (t == tick_) fired_scratch_.push_back(i);
        }
      }
      instr += 20 + cfg_.num_neurons * 4;
      break;
    }
  }

  // Post-event history for the deferred STDP rule.
  for (const std::uint32_t idx : fired_scratch_) {
    if (idx < last_post_tick_.size()) {
      last_post_tick_[idx] = static_cast<std::int32_t>(tick_);
    }
  }

  instr += emit_spikes(api, fired_scratch_);
  ++tick_;
  return instr;
}

std::uint64_t NeuronApp::on_packet(chip::CoreApi& api,
                                   const router::Packet& p) {
  // Identify the spiking neuron, map to its connectivity block in SDRAM,
  // schedule the DMA (§5.3 "Incoming packet arrival").
  const SynapticRow row = rows_->find(p.key);
  if (row.synapses.empty()) {
    return 25;  // lookup miss: nothing aimed at this core's neurons
  }
  api.dma_read(row.bytes(), /*cookie=*/p.key);
  return 35;
}

std::uint64_t NeuronApp::on_dma_done(chip::CoreApi& api,
                                     const chip::DmaDone& d) {
  if (d.was_write) return 15;  // write-back completed: just retire it
  const auto key = static_cast<RoutingKey>(d.cookie);
  const SynapticRow row = rows_->find(key);
  if (row.synapses.empty()) return 20;
  for (const Synapse& s : row.synapses) {
    ring_.add(tick_, s.target, s.delay, s.weight());
  }
  ++rows_processed_;
  synaptic_events_ += row.synapses.size();
  std::uint64_t instr =
      30 + 12 * static_cast<std::uint64_t>(row.synapses.size());

  if (row.plastic() && cfg_.stdp.enabled) {
    // §5.3: "if the connectivity data is modified, a DMA must be scheduled
    // to write the changes back into SDRAM."
    instr += apply_stdp(row);
    api.dma_write(row.bytes(), d.cookie);
    ++plastic_writebacks_;
  }
  return instr;
}

std::uint64_t NeuronApp::apply_stdp(SynapticRow row) {
  const StdpParams& sp = cfg_.stdp;
  RowHistory& history = *row.history;
  std::uint64_t updated = 0;
  for (Synapse& s : row.synapses) {
    if (!s.plastic || s.inhibitory) continue;
    ++updated;
    if (s.target >= last_post_tick_.size()) continue;
    const std::int32_t post = last_post_tick_[s.target];
    if (post < 0) continue;  // target never fired: nothing to pair with
    double w = static_cast<double>(s.weight_raw) / 256.0;
    // Potentiation: a post-spike shortly after the *previous* pre-spike.
    if (history.has_fired_before &&
        post > static_cast<std::int32_t>(history.last_pre_tick) &&
        post - static_cast<std::int32_t>(history.last_pre_tick) <=
            static_cast<std::int32_t>(sp.window_ticks)) {
      w += sp.a_plus;
    }
    // Depression: a post-spike shortly before *this* pre-spike.
    if (static_cast<std::int32_t>(tick_) >= post &&
        static_cast<std::int32_t>(tick_) - post <=
            static_cast<std::int32_t>(sp.window_ticks)) {
      w -= sp.a_minus;
    }
    if (w < 0.0) w = 0.0;
    if (w > sp.w_max) w = sp.w_max;
    s.weight_raw = Synapse::pack_weight(w);
  }
  history.last_pre_tick = tick_;
  history.has_fired_before = true;
  return 8 + 10 * updated;
}

}  // namespace spinn::neural
