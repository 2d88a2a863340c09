// One ARM968 processor subsystem (§4, Fig. 4) running the real-time
// event-driven application model (§5.3, Fig. 7).
//
// The core is a run-to-completion executive with three interrupt sources:
//   priority 1 — packet received  (schedule a synaptic-row DMA)
//   priority 2 — DMA completion   (process connectivity data)
//   priority 3 — 1 ms timer       (integrate the neuron equations)
// When no work is pending the core enters the low-power wait-for-interrupt
// state.  Programs are cost models: each handler returns the number of ARM
// instructions it "executed", which the core converts to busy time on its
// chip's GALS clock.  A timer tick that arrives while the previous tick is
// still queued or running is a real-time overrun — the quantity experiment
// E11 sweeps.
//
// A handler's completion is an event only while work waits for the core.
// Starting a handler reserves the completion's event key (the same sequence
// draw scheduling it would make) and inserts nothing; the core reads its
// handler as ended once the queue has passed that key.  The key is inserted
// when an interrupt queues work behind the handler, when the handler starts
// with work still queued, or when a stop or restart cuts the handler short —
// the cases where the completion does something.  Every event therefore
// keeps the key and the place in the order it would have with a completion
// event per handler.
//
// DMA (§4, Fig. 4) moves synaptic rows between SDRAM and local memory: the
// core queues the transfer on the System NoC, which models its contention
// with the other cores, and the completion is the priority-2 interrupt.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/ring_fifo.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "chip/clock_domain.hpp"
#include "noc/system_noc.hpp"
#include "router/packet.hpp"
#include "sim/simulator.hpp"

namespace spinn::chip {

/// A finished DMA, as the priority-2 interrupt hands it to the program.
struct DmaDone {
  std::uint32_t bytes = 0;
  std::uint64_t cookie = 0;  // caller-defined (e.g. which synaptic row)
  bool was_write = false;
};

/// Services a program running on a core may invoke.
class CoreApi {
 public:
  virtual ~CoreApi() = default;

  /// Emit a multicast (spike) packet with this core's AER key space.
  virtual void send_mc(RoutingKey key,
                       std::optional<std::uint32_t> payload = std::nullopt) = 0;

  /// Queue a DMA read of a block of connectivity data.
  virtual void dma_read(std::uint32_t bytes, std::uint64_t cookie) = 0;
  /// Queue a DMA write-back of modified connectivity data.
  virtual void dma_write(std::uint32_t bytes, std::uint64_t cookie) = 0;

  virtual TimeNs now() const = 0;
  virtual CoreId id() const = 0;
  virtual std::uint32_t timer_tick() const = 0;
  virtual Rng& rng() = 0;
};

/// A program loaded onto a core.  Handlers return instruction counts.
class CoreProgram {
 public:
  virtual ~CoreProgram() = default;

  virtual std::uint64_t on_start(CoreApi& api) {
    (void)api;
    return 100;
  }
  virtual std::uint64_t on_timer(CoreApi& api) {
    (void)api;
    return 0;
  }
  virtual std::uint64_t on_packet(CoreApi& api, const router::Packet& p) {
    (void)api;
    (void)p;
    return 0;
  }
  virtual std::uint64_t on_dma_done(CoreApi& api, const DmaDone& d) {
    (void)api;
    (void)d;
    return 0;
  }
};

enum class CoreState : std::uint8_t {
  Off,       // no program / disabled
  Failed,    // did not pass self-test (§5.2)
  Sleeping,  // wait-for-interrupt
  Busy,      // executing a handler
};

class Core final : public CoreApi {
 public:
  struct Stats {
    TimeNs busy_ns = 0;
    std::uint64_t timer_events = 0;
    std::uint64_t packet_events = 0;
    std::uint64_t dma_events = 0;
    std::uint64_t packets_sent = 0;
    std::uint64_t instructions = 0;
    std::uint64_t overruns = 0;        // timer tick arrived before previous done
    /// Spikes lost at this core: comms-controller queue overflow, packets
    /// to a dead core, and row reads discarded by a migration or a kill.
    std::uint64_t packets_dropped = 0;
    std::size_t max_packet_queue = 0;
  };

  using McSend = std::function<void(const router::Packet&)>;

  Core(sim::Simulator& sim, CoreId id, const ClockDomain& clock,
       noc::SystemNoc& system_noc, std::uint64_t seed);

  // CoreApi
  void send_mc(RoutingKey key, std::optional<std::uint32_t> payload) override;
  void dma_read(std::uint32_t bytes, std::uint64_t cookie) override;
  void dma_write(std::uint32_t bytes, std::uint64_t cookie) override;
  TimeNs now() const override { return sim_.now(); }
  CoreId id() const override { return id_; }
  std::uint32_t timer_tick() const override { return timer_ticks_seen_; }
  Rng& rng() override { return rng_; }

  /// Wire the comms controller's outbound path.
  void set_mc_send(McSend send) { mc_send_ = std::move(send); }

  /// Ordering identity of the owning chip's event tree (set by the chip).
  void set_actor(sim::ActorId actor) { actor_ = actor; }

  void load_program(std::unique_ptr<CoreProgram> program);
  CoreProgram* program() { return program_.get(); }

  /// Functional migration support: stop this core and surrender its program
  /// (with all its state) so it can be adopted by a spare core.  Queued
  /// events are discarded — in-flight work is lost across a migration, as
  /// on the real machine.
  std::unique_ptr<CoreProgram> take_program();

  /// Begin execution (runs on_start).  No-op if Off/Failed.
  void start();

  /// Interrupt entry points (wired by the chip).
  void timer_interrupt();
  void packet_interrupt(const router::Packet& p);
  void dma_interrupt(const DmaDone& d);

  void mark_failed();
  /// Reboot after a neighbour rescue (§5.2): clears a transient self-test
  /// failure; the core returns to the unprogrammed Off state.
  void reset_after_rescue();
  /// Busy only until the running handler's end instant, whether or not its
  /// completion is an event.
  CoreState state() const {
    return state_ == CoreState::Busy && !handler_running()
               ? CoreState::Sleeping
               : state_;
  }
  bool usable() const {
    return state_ == CoreState::Sleeping || state_ == CoreState::Busy;
  }

  const Stats& stats() const { return stats_; }

  /// Comms-controller receive queue capacity (small on the real chip; the
  /// deferred-event model keeps it short-lived).
  static constexpr std::size_t kPacketQueueLimit = 256;

 private:
  void dispatch();
  void run_handler(std::uint64_t instructions);

  /// True while the queue has not yet passed the running handler's reserved
  /// completion key: before its instant, or at it with the executing event
  /// keyed no later than the completion.  Only meaningful while Busy.
  bool handler_running() const;
  /// Apply a completion the queue has passed without an event: Busy becomes
  /// Sleeping, as the completion event would have left it.
  void settle();
  /// Insert the reserved completion as an event, once.
  void insert_completion();
  /// The completion event: back to sleep and serve queued work.
  void complete();
  /// Work was queued: serve it now, or have the running handler's
  /// completion serve it.
  void work_arrived();
  /// The core leaves Busy other than by its handler's end (a stop or a
  /// restart): the handler's completion still fires, as its event did.
  void leave_handler();
  bool work_queued() const {
    return !packet_queue_.empty() || !dma_queue_.empty() || timer_pending_ > 0;
  }

  sim::Simulator& sim_;
  CoreId id_;
  sim::ActorId actor_ = sim::kRootActor;
  const ClockDomain& clock_;
  noc::SystemNoc& system_noc_;
  Rng rng_;
  std::unique_ptr<CoreProgram> program_;
  McSend mc_send_;

  CoreState state_ = CoreState::Off;
  bool in_handler_ = false;
  bool servicing_timer_ = false;  // current busy period is a timer handler
  RingFifo<router::Packet> packet_queue_;  // priority 1
  RingFifo<DmaDone> dma_queue_;            // priority 2
  std::uint32_t timer_pending_ = 0;        // priority 3
  std::uint32_t timer_ticks_seen_ = 0;
  /// Reserved key of the running (or last) handler's completion; its
  /// `when` is the handler's end instant.
  sim::EventKey completion_{};
  bool completion_inserted_ = true;

  Stats stats_;
};

}  // namespace spinn::chip
