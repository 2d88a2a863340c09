// The session scheduler: a small worker pool multiplexing many sessions.
//
// Sessions are serviced in bounded biological-time slices and requeued at
// the back of a ready queue, giving round-robin fairness: eight sessions on
// two workers all make continuous progress, and a client polling drain() on
// any of them sees spikes appear between slices rather than only at the end.
// A session sits in the queue at most once (its queued flag), so concurrent
// run requests never double-schedule it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "server/session.hpp"

namespace spinn::server {

class SessionScheduler {
 public:
  /// `workers` may be 0: nothing is serviced until drive() is called —
  /// deterministic mode for tests.
  SessionScheduler(std::uint32_t workers, TimeNs slice);
  ~SessionScheduler();

  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;

  /// Make the session eligible for worker time (no-op if already queued).
  void submit(const std::shared_ptr<Session>& session) SPINN_EXCLUDES(mu_);

  /// Service at most one queued session for one slice on the calling
  /// thread.  Returns false when the queue was empty.  This is the worker
  /// loop body, exposed for 0-worker deterministic operation.
  bool drive() SPINN_EXCLUDES(mu_);

  /// Sessions currently sitting in the ready queue (telemetry: the
  /// `server.queue_depth` gauge; a sustained non-zero depth means the
  /// workers are saturated).
  std::size_t depth() const SPINN_EXCLUDES(mu_);

  /// Stop and join the workers.  Queued sessions keep their pending work;
  /// the server tears them down afterwards.
  void stop() SPINN_EXCLUDES(mu_);

 private:
  void worker_main() SPINN_EXCLUDES(mu_);
  std::shared_ptr<Session> pop() SPINN_EXCLUDES(mu_);

  const TimeNs slice_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<Session>> ready_ SPINN_GUARDED_BY(mu_);
  bool stopping_ SPINN_GUARDED_BY(mu_) = false;
  /// Constructor-spawned, joined exactly once by the first stop(); never
  /// touched by workers themselves, so no guard.
  std::vector<std::thread> workers_;
};

}  // namespace spinn::server
