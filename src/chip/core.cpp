#include "chip/core.hpp"

#include <algorithm>

namespace spinn::chip {

Core::Core(sim::Simulator& sim, CoreId id, const ClockDomain& clock,
           noc::SystemNoc& system_noc, std::uint64_t seed)
    : sim_(sim), id_(id), clock_(clock), system_noc_(system_noc), rng_(seed) {}

void Core::load_program(std::unique_ptr<CoreProgram> program) {
  program_ = std::move(program);
}

std::unique_ptr<CoreProgram> Core::take_program() {
  leave_handler();
  state_ = CoreState::Off;
  // In-flight work is lost across a migration, as on the real machine —
  // and it is *accounted* lost, so a recovery window can be quantified.
  stats_.packets_dropped += packet_queue_.size();
  packet_queue_.clear();
  // A fetched row not yet processed is a lost spike too; a write-back
  // loses nothing.
  for (std::size_t i = 0; i < dma_queue_.size(); ++i) {
    if (!dma_queue_[i].was_write) ++stats_.packets_dropped;
  }
  dma_queue_.clear();
  timer_pending_ = 0;
  return std::move(program_);
}

void Core::mark_failed() {
  leave_handler();
  state_ = CoreState::Failed;
}

void Core::reset_after_rescue() {
  leave_handler();
  state_ = CoreState::Off;
}

void Core::start() {
  if (state_ == CoreState::Failed || !program_) return;
  leave_handler();
  state_ = CoreState::Sleeping;
  run_handler(program_->on_start(*this));
}

void Core::send_mc(RoutingKey key, std::optional<std::uint32_t> payload) {
  router::Packet p;
  p.type = router::PacketType::Multicast;
  p.key = key;
  p.payload = payload;
  p.launched_at = sim_.now();
  ++stats_.packets_sent;
  if (mc_send_) mc_send_(p);
}

void Core::dma_read(std::uint32_t bytes, std::uint64_t cookie) {
  const DmaDone done{bytes, cookie, /*was_write=*/false};
  system_noc_.transfer(bytes, [this, done] { dma_interrupt(done); });
}

void Core::dma_write(std::uint32_t bytes, std::uint64_t cookie) {
  const DmaDone done{bytes, cookie, /*was_write=*/true};
  system_noc_.transfer(bytes, [this, done] { dma_interrupt(done); });
}

void Core::timer_interrupt() {
  settle();
  if (!usable()) return;
  if (timer_pending_ > 0 || (state_ == CoreState::Busy && servicing_timer_)) {
    // Previous millisecond's work not finished: missed real-time deadline.
    ++stats_.overruns;
  }
  ++timer_pending_;
  work_arrived();
}

void Core::packet_interrupt(const router::Packet& p) {
  settle();
  if (state_ == CoreState::Failed) {
    // A packet addressed to a dead core is traffic the fault lost — count
    // it, so migration-window spike loss is measurable.
    ++stats_.packets_dropped;
    return;
  }
  if (!usable()) return;
  if (packet_queue_.size() >= kPacketQueueLimit) {
    ++stats_.packets_dropped;
    return;
  }
  packet_queue_.push_back(p);
  stats_.max_packet_queue =
      std::max(stats_.max_packet_queue, packet_queue_.size());
  work_arrived();
}

void Core::dma_interrupt(const DmaDone& d) {
  settle();
  if (!usable()) {
    // A row read that lands after its core was migrated away or killed:
    // the spike that fetched it is lost.
    if (!d.was_write) ++stats_.packets_dropped;
    return;
  }
  dma_queue_.push_back(d);
  work_arrived();
}

void Core::work_arrived() {
  if (state_ == CoreState::Busy) {
    insert_completion();
    return;
  }
  dispatch();
}

void Core::dispatch() {
  if (state_ != CoreState::Sleeping || in_handler_) return;
  if (!program_) return;

  // Fig. 7 priority order: packet > DMA > timer.
  if (!packet_queue_.empty()) {
    const router::Packet p = packet_queue_.pop_front();
    ++stats_.packet_events;
    in_handler_ = true;
    const std::uint64_t instr = program_->on_packet(*this, p);
    in_handler_ = false;
    run_handler(instr);
    return;
  }
  if (!dma_queue_.empty()) {
    const DmaDone d = dma_queue_.pop_front();
    ++stats_.dma_events;
    in_handler_ = true;
    const std::uint64_t instr = program_->on_dma_done(*this, d);
    in_handler_ = false;
    run_handler(instr);
    return;
  }
  if (timer_pending_ > 0) {
    --timer_pending_;
    ++timer_ticks_seen_;
    ++stats_.timer_events;
    in_handler_ = true;
    servicing_timer_ = true;
    const std::uint64_t instr = program_->on_timer(*this);
    in_handler_ = false;
    run_handler(instr);
    return;
  }
  // Nothing pending: remain in wait-for-interrupt (Sleeping).
}

void Core::run_handler(std::uint64_t instructions) {
  stats_.instructions += instructions;
  const TimeNs busy = clock_.instruction_time(instructions);
  stats_.busy_ns += busy;
  state_ = CoreState::Busy;
  // Keyed to the owning chip's actor: start() can be invoked from the
  // loader (top level) or the boot flood-fill (root-actor events), but the
  // core's execution belongs to its chip's event tree.
  completion_ = sim_.queue().reserve_key_as(sim_.now() + busy, actor_,
                                            sim::EventPriority::Interrupt);
  completion_inserted_ = false;
  if (work_queued()) insert_completion();
}

bool Core::handler_running() const {
  const sim::EventQueue& q = sim_.queue();
  if (q.now() != completion_.when) return q.now() < completion_.when;
  return q.executing() && !(completion_ < q.current_key());
}

void Core::settle() {
  if (state_ != CoreState::Busy || handler_running()) return;
  state_ = CoreState::Sleeping;
  servicing_timer_ = false;
}

void Core::insert_completion() {
  if (completion_inserted_) return;
  completion_inserted_ = true;
  sim_.queue().insert_foreign(completion_, actor_, [this] { complete(); });
}

void Core::leave_handler() {
  settle();
  if (state_ == CoreState::Busy) insert_completion();
}

void Core::complete() {
  // The program may have been migrated away (or the core failed) while
  // this handler was "executing"; only a still-busy core goes back to
  // sleep and re-dispatches.
  settle();
  if (state_ != CoreState::Busy) return;
  // A completion left behind by a stopped handler ends whichever handler
  // the restarted core is running; that handler's own completion still
  // follows.
  if (!(sim_.queue().current_key() == completion_)) insert_completion();
  state_ = CoreState::Sleeping;
  servicing_timer_ = false;
  dispatch();
}

}  // namespace spinn::chip
