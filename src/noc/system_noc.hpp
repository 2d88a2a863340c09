// The System NoC (§4, Fig. 3): the general-purpose on-chip interconnect
// through which the 20 processors reach the shared off-chip SDRAM by DMA.
//
// Model: a single serially-shared resource.  Transfers queue FIFO and are
// serviced at the SDRAM's sustained bandwidth plus a first-word latency.
// This captures the contention behaviour that matters to the application
// model: when many cores fetch synaptic rows in the same millisecond, DMA
// completion times stretch.
#pragma once

#include <cstdint>

#include "common/ring_fifo.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace spinn::noc {

struct SystemNocConfig {
  double bandwidth_bytes_per_sec = machine::kSdramBandwidthBytesPerSec;
  TimeNs first_word_latency_ns = machine::kSdramLatency;
};

class SystemNoc {
 public:
  using Completion = sim::EventAction;

  SystemNoc(sim::Simulator& sim, const SystemNocConfig& config);

  /// Scheduled events and cores hold `this`: a NoC never moves.
  SystemNoc(const SystemNoc&) = delete;
  SystemNoc& operator=(const SystemNoc&) = delete;

  /// Queue a transfer of `bytes`; `done` fires when the last beat lands.
  void transfer(std::uint32_t bytes, Completion done);

  /// Ordering identity of the owning chip's event tree (set by the chip).
  void set_actor(sim::ActorId actor) { actor_ = actor; }

  std::uint64_t bytes_transferred() const { return bytes_transferred_; }
  std::uint64_t transfers() const { return transfers_; }
  /// Total time the SDRAM port spent busy (for utilisation/energy).
  TimeNs busy_time() const { return busy_time_; }

 private:
  struct Request {
    std::uint32_t bytes;
    Completion done;
  };

  void start_next();
  void finish_service();

  sim::Simulator& sim_;
  sim::ActorId actor_ = sim::kRootActor;
  SystemNocConfig cfg_;
  RingFifo<Request> queue_;
  /// Completion of the transfer being serviced (valid while busy_), so the
  /// service event captures only `this`.
  Completion in_service_;
  bool busy_ = false;
  std::uint64_t bytes_transferred_ = 0;
  std::uint64_t transfers_ = 0;
  TimeNs busy_time_ = 0;
};

}  // namespace spinn::noc
