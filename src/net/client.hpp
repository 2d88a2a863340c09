// net::Client — the library a host-side program uses to talk to a
// NetServer.
//
// Three idioms, composable on one connection:
//
//   Client c(port);
//   c.request("open app=chain seed=7");          // sync: one round-trip
//
//   c.send("status 1"); c.send("status 2");      // pipelined: many frames
//   auto a = c.receive(); auto b = c.receive();  // in flight, answers in
//                                                // order
//
//   c.batch({"open app=chain", "run $ 10",       // batch: one frame, one
//            "wait $", "drain $", "close $"});   // response, $ = the id
//                                                // this batch opened
//
// The client is deliberately blocking (reads park on the socket): the
// concurrency story lives server-side in the reactor, and a load generator
// simply uses one Client per thread.  I/O is batched under the hood —
// pipelined send()s cork into one write (flushed automatically before any
// receive(), at a size threshold, or explicitly), and receives pull whole
// socket buffers through a frame decoder — so a deep pipeline costs a
// couple of syscalls, not two per frame.  Response-parsing helpers for the
// machine-first formats live in net/protocol.hpp (parse_spikes,
// parse_open_id).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "neural/network.hpp"

namespace spinn::net {

/// Typed builder for network descriptions: it accumulates a
/// NetworkDescription, which neural::build compiles into a Network, and
/// emits its canonical `net ... end` block for a batch frame.  Because the
/// server compiles the parsed description through the same neural::build
/// as an embedded caller would, a net submitted from here is bit-identical
/// to building description() locally (tests/net_description_test.cpp pins
/// this).
///
///   NetBuilder b;
///   b.poisson("noise", 32, 40.0);
///   b.lif("cells", 64);
///   b.project("noise", "cells", neural::Connector::fixed_probability(0.25),
///             neural::ValueDist::uniform(4.0, 8.0),
///             neural::ValueDist::fixed(1.0));
///   auto lines = b.lines();                  // net / pop ... / proj ... / end
///   lines.push_back("open app=@ seed=7");    // @ = the net this batch sent
///   lines.push_back("run $ 20");
///   ...
///   client.batch(lines);
///
/// Population methods return the just-added PopulationDesc (and project*
/// the ProjectionDesc) for parameter tweaks.  The reference points into
/// the growing description and is INVALIDATED by the next builder call —
/// tweak immediately (as above), never hold it across another add.
class NetBuilder {
 public:
  neural::PopulationDesc& lif(const std::string& name, std::uint32_t size);
  neural::PopulationDesc& izhikevich(const std::string& name,
                                     std::uint32_t size);
  neural::PopulationDesc& poisson(const std::string& name,
                                  std::uint32_t size, double rate_hz);
  neural::PopulationDesc& spike_source(
      const std::string& name,
      std::vector<std::vector<std::uint32_t>> schedule);

  neural::ProjectionDesc& project(const std::string& pre,
                                  const std::string& post,
                                  neural::Connector connector,
                                  neural::ValueDist weight,
                                  neural::ValueDist delay_ms,
                                  bool inhibitory = false);
  neural::ProjectionDesc& project_plastic(const std::string& pre,
                                          const std::string& post,
                                          neural::Connector connector,
                                          neural::ValueDist weight,
                                          neural::ValueDist delay_ms,
                                          const neural::StdpParams& stdp);

  /// The accumulated description (what an embedded caller would hand to
  /// neural::build, or a SessionSpec's `net` field).
  const neural::NetworkDescription& description() const { return desc_; }

  /// The canonical wire block: `net`, pop/proj lines, `end` — splice into
  /// a batch ahead of `open app=@ ...`.
  std::vector<std::string> lines() const;

 private:
  neural::NetworkDescription desc_;
};

class Client {
 public:
  /// Connect to a NetServer on 127.0.0.1:port.  Throws std::runtime_error
  /// when the connection fails.
  explicit Client(std::uint16_t port);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// True until a send/receive hits a transport error (server shed us, or
  /// shut down).  All operations on a disconnected client fail fast.
  bool connected() const { return static_cast<bool>(fd_); }

  /// One request, one response (empty string on transport failure — the
  /// protocol itself never answers with an empty payload).
  std::string request(const std::string& line);

  /// Pipelining: queue a request frame without waiting for its response.
  /// Corked: bytes reach the wire on flush(), on the next receive(), or
  /// once the cork passes 64 KiB.  False on transport failure.
  bool send(const std::string& frame);

  /// Push any corked frames onto the wire now.  False on failure.
  bool flush();

  /// Next response frame, in request order (flushes first).  Empty on
  /// transport failure.
  std::string receive();

  /// One batch frame from `lines` (joined with newlines); returns the
  /// whole response payload.  split_response() recovers the per-command
  /// blocks.
  std::string batch(const std::vector<std::string>& lines);

  /// Half-close: flush any corked frames, then shutdown(SHUT_WR) — tells
  /// the server "no more requests" while keeping the read side open.  The
  /// server drains: every pipelined request still executes and answers, so
  /// receive() keeps returning responses in order until the server's
  /// closing EOF.  False on transport failure.  The natural end-of-session
  /// idiom: send everything, shutdown_write(), read replies to EOF.
  bool shutdown_write();

  /// Split a (batch) response payload back into per-command blocks.  Every
  /// block is one line except `spikes <n>`, which spans the n following
  /// `s ...` lines.
  static std::vector<std::string> split_response(const std::string& payload);

 private:
  Fd fd_;
  std::string cork_;      // encoded frames awaiting one write
  FrameDecoder in_;       // buffers whole recv()s, yields frames
};

}  // namespace spinn::net
