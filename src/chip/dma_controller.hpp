// Per-core DMA controller (§4, Fig. 4): "typically used to transfer blocks
// of synaptic connectivity data from the SDRAM to the processor local memory
// in response to the arrival of an incoming neural spike event."
//
// Each core owns one controller; all controllers contend for the shared
// SDRAM port through the System NoC.  Completion raises the priority-2
// interrupt of the event-driven model (Fig. 7).
#pragma once

#include <cstdint>
#include <functional>

#include "common/units.hpp"
#include "noc/system_noc.hpp"
#include "sim/simulator.hpp"

namespace spinn::chip {

struct DmaDone {
  std::uint32_t bytes = 0;
  std::uint64_t cookie = 0;  // caller-defined (e.g. which synaptic row)
  bool was_write = false;
  TimeNs requested_at = 0;
};

class DmaController {
 public:
  using Completion = std::function<void(const DmaDone&)>;

  DmaController(sim::Simulator& sim, noc::SystemNoc& system_noc)
      : sim_(sim), system_noc_(system_noc) {}

  void set_completion(Completion c) { completion_ = std::move(c); }

  /// Queue a read (SDRAM -> DTCM) of `bytes`.
  void read(std::uint32_t bytes, std::uint64_t cookie) {
    start(bytes, cookie, /*write=*/false);
  }

  /// Queue a write-back (DTCM -> SDRAM), e.g. plastic synapse updates.
  void write(std::uint32_t bytes, std::uint64_t cookie) {
    start(bytes, cookie, /*write=*/true);
  }

 private:
  void start(std::uint32_t bytes, std::uint64_t cookie, bool write) {
    const DmaDone done{bytes, cookie, write, sim_.now()};
    system_noc_.transfer(bytes, [this, done] {
      if (completion_) completion_(done);
    });
  }

  sim::Simulator& sim_;
  noc::SystemNoc& system_noc_;
  Completion completion_;
};

}  // namespace spinn::chip
