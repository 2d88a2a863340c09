#include "core/fault_controller.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace spinn {

namespace {

std::string coord(ChipCoord c) {
  return std::to_string(c.x) + "," + std::to_string(c.y);
}

obs::Counter& faults_metric() {
  static obs::Counter& c = obs::Registry::global().counter("fault.executed");
  return c;
}
obs::Counter& migrations_metric() {
  static obs::Counter& c =
      obs::Registry::global().counter("fault.migrations");
  return c;
}

}  // namespace

std::string describe(const FaultAction& a) {
  switch (a.kind) {
    case FaultAction::Kind::KillCore:
      return "kill core=" + coord(a.chip) + "," + std::to_string(a.core);
    case FaultAction::Kind::KillChip:
      return "kill chip=" + coord(a.chip);
    case FaultAction::Kind::GlitchLink:
      return std::string("glitch link=") + coord(a.chip) + "," +
             to_string(a.dir);
    case FaultAction::Kind::HealLink:
      return std::string("heal link=") + coord(a.chip) + "," +
             to_string(a.dir);
  }
  return "?";
}

FaultController::FaultController(System& system, const neural::Network& net,
                                 map::PlacementResult& placement,
                                 map::MapperConfig mapper, TimeNs run_base,
                                 std::uint64_t seed)
    : system_(system),
      net_(net),
      placement_(placement),
      mapper_(mapper),
      run_base_(run_base),
      seed_(seed) {}

FaultController::~FaultController() = default;

void FaultController::schedule(const FaultAction& action) {
  const std::size_t index = records_.size();
  FaultRecord record;
  record.action = action;
  records_.push_back(std::move(record));
  // Clamp times already simulated to "now": the fault then executes at the
  // next event-queue instant instead of throwing the whole run away.
  const TimeNs when = std::max(run_base_ + action.at, system_.now());
  system_.simulator().at(when, [this, index] { execute(index); });
}

void FaultController::execute(std::size_t index) {
  FaultRecord& r = records_[index];
  r.executed = true;
  r.executed_at = system_.now();
  // Fault spans are stamped with VIRTUAL time (the simulation's own
  // clock), so the fault → quiesce → migrate → resume event structure is
  // bit-identical across serial, sharded and wire-driven executions of
  // the same scenario — the determinism contract extended to the trace.
  faults_metric().inc();
  obs::Tracer::global().instant("fault", "fault.inject", r.executed_at,
                                "index", index, /*virtual_clock=*/true);
  switch (r.action.kind) {
    case FaultAction::Kind::KillCore: kill_core(index); break;
    case FaultAction::Kind::KillChip: kill_chip(index); break;
    case FaultAction::Kind::GlitchLink: glitch_link(index); break;
    case FaultAction::Kind::HealLink: heal_link(index); break;
  }
  if (r.migrations > 0) {
    migrations_metric().inc(r.migrations);
    obs::Tracer::global().complete(
        "fault", "fault.migrate", r.executed_at,
        std::max<TimeNs>(r.recovery_ns, 1), "migrations", r.migrations,
        /*virtual_clock=*/true);
  }
}

void FaultController::kill_core(std::size_t index) {
  FaultRecord& r = records_[index];
  mesh::Machine& machine = system_.machine();
  const CoreId victim{r.action.chip, r.action.core};
  chip::Core& core = machine.chip_at(victim.chip).core(victim.core);
  const std::uint64_t before = dropped_now();
  core.mark_failed();  // quiesce: the victim takes no further interrupts
  obs::Tracer::global().instant("fault", "fault.quiesce", r.executed_at,
                                "index", index, /*virtual_clock=*/true);

  map::Migrator migrator(net_, placement_, mapper_);
  r.migration = migrator.migrate(machine, victim);
  // migrate()'s take_program left the victim Off; it died, and must never
  // come back as a future spare.
  core.mark_failed();

  r.routers_rewritten = r.migration.routers_rewritten;
  r.entries_written = r.migration.entries_written;
  r.recovery_ns = r.migration.reconfiguration_estimate_ns;
  if (!r.migration.ok) {
    r.error = r.migration.error;
    return;
  }
  r.migrations = 1;
  r.ok = true;
  arm_loss_probe(index, before);
}

void FaultController::kill_chip(std::size_t index) {
  FaultRecord& r = records_[index];
  mesh::Machine& machine = system_.machine();
  const std::uint64_t before = dropped_now();
  machine.fail_chip(r.action.chip);
  obs::Tracer::global().instant("fault", "fault.quiesce", r.executed_at,
                                "index", index, /*virtual_clock=*/true);

  // Collect the resident slices before migrations mutate the placement.
  std::vector<CoreId> victims;
  for (const map::Slice& s : placement_.slices) {
    if (s.core.chip == r.action.chip) victims.push_back(s.core);
  }
  map::Migrator migrator(net_, placement_, mapper_);
  for (std::size_t i = 0; i < victims.size(); ++i) {
    r.migration = migrator.migrate(machine, victims[i]);
    machine.chip_at(victims[i].chip).core(victims[i].core).mark_failed();
    r.routers_rewritten += r.migration.routers_rewritten;
    r.entries_written += r.migration.entries_written;
    r.recovery_ns += r.migration.reconfiguration_estimate_ns;
    if (!r.migration.ok) {
      r.error = "migrated " + std::to_string(i) + " of " +
                std::to_string(victims.size()) + " resident slices: " +
                r.migration.error;
      return;
    }
    ++r.migrations;
  }
  r.ok = true;
  arm_loss_probe(index, before);
}

void FaultController::glitch_link(std::size_t index) {
  FaultRecord& r = records_[index];
  Sidecar* existing = find_sidecar(r.action.chip, r.action.dir);
  if (existing != nullptr && !existing->stopped) {
    r.error = "link already under glitch injection (delivered=" +
              std::to_string(existing->link->stats().delivered) + " of " +
              std::to_string(existing->link->stats().requested) + ")";
    return;
  }
  link::GlitchLinkConfig cfg;
  cfg.kind = r.action.conventional
                 ? link::PhaseConverter::Kind::ConventionalXor
                 : link::PhaseConverter::Kind::TransitionSensing;
  cfg.glitch_rate_hz = r.action.glitch_rate_hz;
  // Derive a per-link seed so two sidecars never share an RNG stream and
  // the same schedule replays bit-identically.
  const std::uint64_t link_seed =
      seed_ ^ (0x9e3779b97f4a7c15ull * (1 + r.action.chip.x)) ^
      (0xbf58476d1ce4e5b9ull * (1 + r.action.chip.y)) ^
      (0x94d049bb133111ebull * (1 + static_cast<std::uint64_t>(r.action.dir)));
  Sidecar side;
  side.chip = r.action.chip;
  side.dir = r.action.dir;
  side.link = std::make_unique<link::GlitchLink>(system_.simulator(), cfg,
                                                 link_seed);
  side.link->start(r.action.glitch_symbols);
  sidecars_.push_back(std::move(side));
  r.ok = true;
}

void FaultController::heal_link(std::size_t index) {
  FaultRecord& r = records_[index];
  if (system_.machine().chip_failed(r.action.chip)) {
    r.error = "cannot heal a link of failed chip (" + coord(r.action.chip) +
              ")";
    return;
  }
  // Stop any glitch sidecar riding this link; its in-flight events retire
  // as no-ops.  Healing a healthy link is a clean no-op.
  Sidecar* side = find_sidecar(r.action.chip, r.action.dir);
  if (side != nullptr && !side->stopped) {
    side->link->stop();
    side->stopped = true;
  }
  system_.machine().repair_link(r.action.chip, r.action.dir);
  r.ok = true;
}

void FaultController::arm_loss_probe(std::size_t index,
                                     std::uint64_t before) {
  // Measure packets lost from the fault instant to the end of the reported
  // recovery window: read the machine-wide drop odometer again when the
  // window closes.
  const TimeNs window_end =
      system_.now() + std::max<TimeNs>(records_[index].recovery_ns, 1);
  system_.simulator().at(window_end, [this, index, before, window_end] {
    records_[index].spikes_lost = dropped_now() - before;
    records_[index].spikes_lost_final = true;
    // The recovery window closing is the "resume" instant: reconfiguration
    // is complete, losses are accounted.  Virtual time, like the rest of
    // the fault spans.
    obs::Tracer::global().instant("fault", "fault.resume", window_end,
                                  "index", index, /*virtual_clock=*/true);
  });
}

FaultController::Sidecar* FaultController::find_sidecar(ChipCoord chip,
                                                        LinkDir dir) {
  // Newest first: a heal must stop the most recent injection on the link.
  for (auto it = sidecars_.rbegin(); it != sidecars_.rend(); ++it) {
    if (it->chip == chip && it->dir == dir) return &*it;
  }
  return nullptr;
}

std::uint64_t FaultController::dropped_now() const {
  const mesh::Machine& machine = system_.machine();
  std::uint64_t total = machine.fabric_totals().dropped;
  const mesh::Topology& topo = machine.topology();
  for (std::size_t i = 0; i < machine.num_chips(); ++i) {
    const chip::Chip& c = machine.chip_at(topo.coord_of(i));
    for (CoreIndex k = 0; k < c.num_cores(); ++k) {
      total += c.core(k).stats().packets_dropped;
    }
  }
  return total;
}

FaultTotals FaultController::totals() const {
  FaultTotals t;
  t.scheduled = records_.size();
  for (const FaultRecord& r : records_) {
    if (!r.executed) continue;
    ++t.executed;
    if (!r.ok) ++t.failed;
    t.migrations += r.migrations;
    t.routers_rewritten += r.routers_rewritten;
    t.entries_written += r.entries_written;
    t.recovery_ns += r.recovery_ns;
    t.spikes_lost += r.spikes_lost;
  }
  return t;
}

bool FaultController::take_failure(std::string* reason) {
  if (failure_reported_) return false;
  for (const FaultRecord& r : records_) {
    if (!r.executed || r.ok) continue;
    failure_reported_ = true;
    if (reason != nullptr) {
      *reason = "fault @" + std::to_string(bio_ms(r.executed_at)) + " " +
                describe(r.action) + ": " + r.error;
    }
    return true;
  }
  for (Sidecar& side : sidecars_) {
    if (side.reported || side.stopped || !side.link->deadlocked()) continue;
    side.reported = true;
    failure_reported_ = true;
    if (reason != nullptr) {
      const link::GlitchLink::Stats& st = side.link->stats();
      *reason = "deadlock @" + std::to_string(bio_ms(st.deadlock_time)) +
                " link=" + coord(side.chip) + "," + to_string(side.dir) +
                " delivered=" + std::to_string(st.delivered) + "/" +
                std::to_string(st.requested) +
                " corrupted=" + std::to_string(st.corrupted) +
                " glitches=" + std::to_string(st.glitches);
    }
    return true;
  }
  return false;
}

}  // namespace spinn
