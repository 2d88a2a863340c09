// Reactor: one epoll event-loop worker of the NetServer front-end.
//
// Each reactor owns, privately: an epoll set, a wakeup pipe, a resume
// queue, a handoff queue of freshly-accepted sockets, and a shard of the
// connection map.  Nothing is shared between reactors except the
// SessionServer they execute requests against (thread-safe by design) and
// the NetServer's atomic counters — so N reactors scale the wire pipeline
// (frame decode, request parsing, `net`-grammar compilation, response
// formatting) across N cores without a lock on any per-connection hot
// path.
//
// Topology: reactor 0 owns the listener; accepted connections are dealt
// round-robin across all reactors through adopt() (a mutex-guarded handoff
// vector plus a wakeup-pipe poke).  A connection then lives on its owning
// reactor for its whole life: `notify_idle` resume callbacks capture that
// reactor's resume queue and wakeup pipe, which is the routing rule — a
// resume always lands on the reactor that owns the parked connection
// (docs/CONCURRENCY.md).
//
// The loop itself must never block (tools/lint_invariants.py rules
// `reactor-blocking` / `reactor-loop` scan every Reactor::*loop* body);
// parked waits resume through the wakeup pipe, EOF drains rather than
// blocks (half-close semantics), and accept backoff after fd exhaustion is
// a timeout, not a sleep.
#pragma once

#include <cstddef>
#include <memory>
#include <thread>

#include "net/server.hpp"

namespace spinn::net {

class Reactor {
 public:
  /// Creates the epoll set and wakeup pipe (throws std::runtime_error on
  /// failure — a silently fd-less wakeup pipe would degrade every
  /// cross-thread resume to the poll timeout).  Does NOT spawn the thread;
  /// the NetServer start()s every reactor only after all of them
  /// constructed, so a failed sibling never leaks a running loop.
  /// Reactor 0 polls `server.listener_` and deals accepted connections.
  Reactor(NetServer& server, std::size_t index);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawn the loop thread.
  void start();

  /// Wake the loop out of its epoll wait (stop flags, adopt handoffs).
  /// Safe from any thread, including before start() and after join().
  void notify();

  /// Join the loop thread (caller must have set NetServer::stopping_ and
  /// notify()d).  Idempotent under the caller's serialisation.
  void join();

  /// Hand an accepted connection to this reactor (called by the accepting
  /// reactor's thread); the fd joins this reactor's epoll set at its next
  /// wakeup.
  void adopt(Fd client);

  /// Close the sockets dealt to this reactor but never adopted, and release
  /// their connection count.  Call only once every reactor has joined: a
  /// deal can land after this reactor's loop exited.
  void drop_handoffs();

 private:
  struct Impl;
  void loop();

  NetServer& srv_;
  const std::size_t index_;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
};

}  // namespace spinn::net
