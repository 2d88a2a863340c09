// NetServer: the socket transport in front of a SessionServer.
//
// `NetConfig::reactors` epoll reactor threads (net/reactor.hpp) share one
// accept path and multiplex the client connections between them: frames
// are decoded incrementally, each frame becomes a net::Request executed
// against the shared (thread-safe) SessionServer, and responses queue on a
// bounded per-connection write buffer.  A connection lives on exactly one
// reactor for its whole life, so per-connection ordering is untouched by
// the sharding.  Four properties carry the load story:
//
//  * **Pipelining** — a connection may send any number of request frames
//    without reading responses; they execute in order and answer in order
//    (up to `max_pipeline` in flight, beyond which the flooding connection
//    is shed).
//  * **Parked waits** — a `wait` on a busy session suspends that
//    connection's current request (later frames stay queued behind it) and
//    resumes via SessionServer::notify_idle through the owning reactor's
//    wakeup pipe; reactor threads never block on simulation progress, so
//    one slow session cannot stall the other connections.
//  * **Backpressure** — a connection that stops reading while responses
//    accumulate past `max_write_buffer` bytes is shed (closed, counted in
//    stats) instead of growing the server's memory: slow readers lose
//    their connection, not the server.
//  * **Half-close draining** — a client that sends its requests and
//    `shutdown(SHUT_WR)` still receives every response: EOF marks the
//    connection draining, queued frames are serviced, the outbox is
//    flushed, and only then does the server close its side.
//
// Admission control is the SessionServer's cost-aware policy
// (ServerConfig::cost_budget); the transport adds only connection-level
// limits.  Protocol reference: docs/SERVER.md; client side: net/client.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "server/server.hpp"

namespace spinn::net {

class Reactor;

struct NetConfig {
  /// TCP port on 127.0.0.1; 0 = ephemeral (read the choice from port()).
  std::uint16_t port = 0;
  /// Concurrent connections; accepts beyond this are closed immediately.
  std::size_t max_connections = 128;
  /// Hard cap on a single request or response frame.
  std::size_t max_frame = 8u << 20;
  /// Per-connection response backlog before a slow reader is shed.
  std::size_t max_write_buffer = 8u << 20;
  /// Decoded-but-unserviced request frames per connection before a
  /// flooding writer is shed.
  std::size_t max_pipeline = 256;
  /// Reactor (event-loop) worker threads.  0 = auto: min(4, hardware
  /// concurrency).  Each reactor owns its own epoll set, wakeup pipe,
  /// resume queue and connection shard and runs the full frame-decode →
  /// execute → response-format pipeline; reactor 0 owns the listener and
  /// deals accepted connections round-robin.
  std::size_t reactors = 0;
  /// Gate for the `trace start|stop|dump` verb.  Tracing is process-wide
  /// state (obs::Tracer), so a deployment serving untrusted clients can
  /// turn the verb off wholesale; `metrics` and `netstats` are read-only
  /// and always available.
  bool allow_trace = true;
  /// The embedded session server (workers, slice, max_sessions,
  /// cost_budget, engine pool).
  server::ServerConfig session;
};

/// A snapshot of the transport's counters (NetServer::stats()).
struct NetStats {
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;        // over max_connections
  std::uint64_t shed_slow = 0;      // write backlog over max_write_buffer
  std::uint64_t shed_flood = 0;     // pipeline depth / frame-size violations
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t batches = 0;        // frames carrying > 1 command
  std::uint64_t faults = 0;         // fault actions accepted onto schedules
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::size_t connections = 0;      // currently open (live, non-doomed)
  std::size_t reactors = 0;         // reactor threads serving
};

class NetServer {
 public:
  /// Binds and starts the reactor threads.  Throws std::runtime_error when
  /// the socket cannot be bound (port in use), or when a reactor's epoll
  /// set or wakeup pipe cannot be created (fd exhaustion — a wakeup-less
  /// reactor would silently degrade every cross-thread resume to the poll
  /// timeout).
  explicit NetServer(const NetConfig& cfg = NetConfig{});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (the ephemeral choice when cfg.port was 0).
  std::uint16_t port() const { return port_; }

  /// The embedded session server — the same instance the sockets drive, so
  /// embedders can mix transport and API access (tests compare both).
  server::SessionServer& sessions() { return sessions_; }

  /// Number of reactor threads actually running (cfg.reactors resolved).
  std::size_t reactor_count() const { return reactors_.size(); }

  /// Snapshot of the counters every reactor adds to.  Lock-free, and
  /// consistent by construction: each counter is monotone across
  /// snapshots, and no snapshot shows a frame without its bytes (a reactor
  /// adds a frame's bytes before the frame, the counters publish with
  /// release and read with acquire, and this reads frames before bytes).
  NetStats stats() const;

  /// Stop accepting, drop every connection, join the reactors.  Sessions
  /// survive (the SessionServer tears down with the object, not the
  /// transport).  Idempotent; stats().connections is 0 once it returns.
  void stop();

 private:
  friend class Reactor;

  /// The transport's traffic, counted by every reactor straight into one
  /// block (no per-reactor shard, no lock).
  struct Counters {
    obs::Counter accepted;
    obs::Counter refused;
    obs::Counter shed_slow;
    obs::Counter shed_flood;
    obs::Counter frames_in;
    obs::Counter frames_out;
    obs::Counter batches;
    obs::Counter faults;
    obs::Counter bytes_in;
    obs::Counter bytes_out;
  };

  NetConfig cfg_;
  server::SessionServer sessions_;
  std::uint16_t port_ = 0;
  Fd listener_;
  std::atomic<bool> stopping_{false};
  /// Connection ids are dealt from one server-wide counter so a resume
  /// callback's id names a connection unambiguously whichever reactor
  /// shard it lives in.
  std::atomic<std::uint64_t> next_conn_{1};
  /// Live connections across all shards (++ at accept; -- at shed, at a
  /// loop's exit and in stop()): the accept path checks it against
  /// cfg_.max_connections, and stats() reports it.
  std::atomic<std::size_t> open_conns_{0};
  Counters counters_;
  /// Round-robin dealing cursor for accepted connections.
  std::atomic<std::size_t> next_reactor_{0};
  Mutex stop_mu_;  // serialises the joins across concurrent stop() calls
  std::vector<std::unique_ptr<Reactor>> reactors_;
};

}  // namespace spinn::net
