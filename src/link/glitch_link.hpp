// Event-driven model of one inter-chip 2-of-7 NRZ link under glitch
// injection (§5.1, Fig. 6) — the machinery behind experiment E1.
//
// The transmitter holds the single handshake token.  Sending a symbol
// toggles two of the seven data wires; the receiver's per-wire phase
// converters turn the 2-phase toggles into events, a completion detector
// captures the codeword when two distinct wires have fired, and one ack
// toggle returns the token.  Glitches are injected per-wire as a Poisson
// process.
//
// With conventional converters, a glitch that silently flips a phase
// reference swallows the next genuine transition, stalling the handshake —
// deadlock emerges mechanistically.  With the Fig. 6 transition-sensing
// converter, glitches corrupt data but the handshake survives; the only
// residual deadlock channel is a glitch landing inside the tiny enable-gate
// switching window at capture time (modelled as a probability per capture,
// `metastable_window_sec`, a few ps of exposure per symbol).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "link/codes.hpp"
#include "link/phase_converter.hpp"
#include "sim/simulator.hpp"

namespace spinn::link {

struct GlitchLinkConfig {
  PhaseConverter::Kind kind = PhaseConverter::Kind::TransitionSensing;
  /// One-way wire flight time.
  TimeNs flight_ns = 4;
  /// Codec/completion-detection latency at each end.
  TimeNs logic_ns = 1;
  /// Poisson glitch rate per wire (Hz).  The 8 wires (7 data + ack) are
  /// independently afflicted.
  double glitch_rate_hz = 0.0;
  /// Enable-gate exposure window per capture for the transition-sensing
  /// circuit (seconds).  ~2 ps for a hardened 130 nm edge detector; this is
  /// the one calibrated parameter of the Fig. 6 model (experiment E1,
  /// bench/bench_e01_phase_converter.cpp).
  double metastable_window_sec = 2e-12;
  /// A link that makes no progress for this long while work is pending is
  /// declared deadlocked by the watchdog.
  TimeNs deadlock_timeout_ns = 10'000;
};

class GlitchLink {
 public:
  struct Stats {
    std::uint64_t requested = 0;    // symbols queued for transmission
    std::uint64_t delivered = 0;    // symbols captured by the receiver
    std::uint64_t corrupted = 0;    // delivered with wrong value/framing
    std::uint64_t glitches = 0;     // glitch pulses injected
    std::uint64_t tokens_absorbed = 0;  // duplicate tokens swallowed (Fig. 6)
    bool deadlocked = false;
    TimeNs deadlock_time = 0;
  };

  GlitchLink(sim::Simulator& sim, const GlitchLinkConfig& config,
             std::uint64_t seed);

  /// Queue `n` random symbols and start transmitting.  Also arms the glitch
  /// injectors and the deadlock watchdog.
  void start(std::uint64_t n);

  /// §5.1 deadlock-recovery: reset both ends; each injects a handshake token
  /// on leaving reset, deliberately creating the two-token situation that
  /// the Fig. 6 circuit must absorb.
  void recover();

  /// Stop the link: halt transmission, retire the glitch injector chains
  /// and let any in-flight wire events expire as no-ops.  Used when a fault
  /// schedule heals the link out from under the injection.
  void stop();

  const Stats& stats() const { return stats_; }
  bool deadlocked() const { return stats_.deadlocked; }

  /// Handshake-limited symbol period for this configuration.
  TimeNs symbol_period() const { return 2 * (cfg_.flight_ns + cfg_.logic_ns); }

 private:
  void tx_try_send();
  void tx_on_ack(bool glitch);
  void rx_on_data(int wire, bool glitch);
  void rx_capture();
  void declare_deadlock();
  void schedule_glitch(int wire);  // wire 0..6 data, 7 = ack
  void watchdog();
  void note_progress();

  sim::Simulator& sim_;
  GlitchLinkConfig cfg_;
  Rng rng_;
  TwoOfSevenNrz code_;

  // Transmitter state.
  bool tx_has_token_ = true;
  bool tx_sending_ = false;
  std::uint64_t tx_pending_ = 0;
  std::uint8_t tx_last_value_ = 0;
  PhaseConverter tx_ack_converter_;

  // Receiver state.
  PhaseConverter rx_converter_[TwoOfSevenNrz::kWires];
  Codeword rx_marked_ = 0;  // wires that have fired since last capture

  // Watchdog bookkeeping.
  TimeNs last_progress_ = 0;
  bool running_ = false;
  std::uint32_t glitch_gen_ = 0;  // invalidates stale injector chains

  Stats stats_;
};

}  // namespace spinn::link
