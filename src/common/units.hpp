// Physical units and machine constants used throughout the simulator.
//
// Simulation time is kept in integer nanoseconds: fine enough to resolve
// individual packet hops (~100 ns) and self-timed handshakes (~1 ns), coarse
// enough that a 64-bit tick counter lasts ~292 years of simulated time.
#pragma once

#include <cstdint>

namespace spinn {

/// Simulated time in nanoseconds.
using TimeNs = std::int64_t;

inline constexpr TimeNs kNanosecond = 1;
inline constexpr TimeNs kMicrosecond = 1'000;
inline constexpr TimeNs kMillisecond = 1'000'000;
inline constexpr TimeNs kSecond = 1'000'000'000;

/// The biological real-time quantum: neuron state is advanced every 1 ms
/// (§3.1 "A millisecond timer event in each processor causes the neuronal
/// differential equations to be evaluated").
inline constexpr TimeNs kBiologicalTick = kMillisecond;

namespace machine {

/// ARM968 application core clock (the real chip runs 180-200 MHz).
inline constexpr double kCoreClockHz = 200e6;

/// Nominal instructions-per-clock of the ARM968 cost model.
inline constexpr double kCoreIpc = 0.8;

/// ITCM / DTCM sizes (§4: 32 KB instruction, 64 KB data memory).
inline constexpr std::uint32_t kItcmBytes = 32 * 1024;
inline constexpr std::uint32_t kDtcmBytes = 64 * 1024;

/// Off-chip SDRAM: 1 Gbit mobile DDR (§4).
inline constexpr std::uint64_t kSdramBytes = 128ull * 1024 * 1024;

/// Sustained SDRAM bandwidth available through the System NoC (~1 GB/s on
/// the real part; DMA engines share it).
inline constexpr double kSdramBandwidthBytesPerSec = 1.0e9;

/// First-word SDRAM access latency seen by a DMA burst.
inline constexpr TimeNs kSdramLatency = 100;

/// Inter-chip link raw throughput: 2-of-7 NRZ sends one 4-bit symbol per
/// round trip; the real links sustain ~250 Mb/s.
inline constexpr double kInterChipLinkBitsPerSec = 250e6;

/// Communications NoC fabric throughput per port (3-of-6 RTZ CHAIN, ~1 Gb/s).
inline constexpr double kOnChipLinkBitsPerSec = 1e9;

/// Multicast packet size: "40-bit packet that contains 8 bits of packet
/// management data and a 32-bit identifier" (§4).  With an optional 32-bit
/// payload a packet is 72 bits.
inline constexpr int kMcPacketBits = 40;
inline constexpr int kPacketPayloadBits = 32;

/// Router pipeline latency per hop (the real router is ~0.1 us/hop).
inline constexpr TimeNs kRouterPipelineLatency = 100;

}  // namespace machine

}  // namespace spinn
