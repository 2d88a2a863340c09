#include "mesh/machine.hpp"

#include "common/rng.hpp"

namespace spinn::mesh {

Machine::Machine(sim::ISimulationEngine& engine, const MachineConfig& config)
    : topo_(config.width, config.height) {
  const std::size_t n = topo_.num_chips();
  engine.map_actors(static_cast<sim::ActorId>(n + 1));
  root_ctx_ = &engine.root();
  // The conservative parallel window: no cross-shard packet can arrive
  // sooner than one link flight after it left the far router.
  engine.constrain_lookahead(config.chip.router.port.flight_ns);

  Rng seed_source(config.seed);
  ctx_.reserve(n);
  chips_.reserve(n);
  dead_.assign(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    sim::Simulator* ctx = &engine.context_of(actor_of(i));
    ctx_.push_back(ctx);
    chips_.push_back(std::make_unique<chip::Chip>(
        *ctx, topo_.coord_of(i), config.chip, seed_source));
    chips_.back()->set_actor(actor_of(i));
  }
  wire_links();

  host_link_ = std::make_unique<HostLink>(*root_ctx_, config.host_link);
  // Frames from the host surface at node (0,0)'s monitor handler; the chip
  // owner (boot firmware, application loader) registers that handler.
}

void Machine::wire_links() {
  far_chip_.resize(chips_.size() * kLinksPerChip);
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    for (int l = 0; l < kLinksPerChip; ++l) {
      const auto d = static_cast<LinkDir>(l);
      const std::size_t link = i * kLinksPerChip + l;
      far_chip_[link] = topo_.index(topo_.neighbour(topo_.coord_of(i), d));
      // The port hands the packet over at wire departure; the machine owns
      // the flight so the delivery can be a cross-actor handoff executing
      // under the receiving chip (and, under the sharded engine, on the
      // receiving chip's shard) with flight_ns of lookahead still ahead.
      chips_[i]->router().port(d).set_sink(
          [this, link](const router::Packet& p) { depart(link, p); });
    }
  }
}

void Machine::depart(std::size_t link, const router::Packet& p) {
  const std::size_t j = far_chip_[link];
  ctx_[link / kLinksPerChip]->handoff(
      chips_[j]->config().router.port.flight_ns, actor_of(j),
      [this, link, p] { arrive(link, p); }, sim::EventPriority::Fabric);
}

void Machine::arrive(std::size_t link, const router::Packet& p) {
  const std::size_t j = far_chip_[link];
  if (dead_[j]) return;  // dead chip swallows input
  const auto d = static_cast<LinkDir>(link % kLinksPerChip);
  chips_[j]->router().receive(p, opposite(d));
}

void Machine::fail_link(ChipCoord c, LinkDir d) {
  chip_at(c).router().port(d).fail();
  chip_at(topo_.neighbour(c, d)).router().port(opposite(d)).fail();
}

void Machine::repair_link(ChipCoord c, LinkDir d) {
  chip_at(c).router().port(d).repair();
  chip_at(topo_.neighbour(c, d)).router().port(opposite(d)).repair();
}

void Machine::fail_chip(ChipCoord c) {
  dead_[topo_.index(c)] = true;
  chip::Chip& victim = chip_at(c);
  victim.stop_timers();
  for (CoreIndex i = 0; i < victim.num_cores(); ++i) {
    victim.core(i).mark_failed();
  }
  // Its own outputs stop driving the wires.
  for (int l = 0; l < kLinksPerChip; ++l) {
    victim.router().port(static_cast<LinkDir>(l)).fail();
  }
}

Machine::FabricTotals Machine::fabric_totals() const {
  FabricTotals t;
  for (const auto& c : chips_) {
    const router::Router::Counters& rc = c->router().counters();
    t.received += rc.received;
    t.forwarded += rc.forwarded;
    t.delivered_local += rc.delivered_local;
    t.default_routed += rc.default_routed;
    t.emergency_first_leg += rc.emergency_first_leg;
    t.emergency_second_leg += rc.emergency_second_leg;
    t.dropped += rc.dropped;
  }
  return t;
}

void Machine::start_all_timers(TimeNs nominal_period) {
  for (auto& c : chips_) c->start_timers(nominal_period);
}

void Machine::stop_all_timers() {
  for (auto& c : chips_) c->stop_timers();
}

}  // namespace spinn::mesh
