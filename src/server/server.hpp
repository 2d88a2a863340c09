// The long-lived simulation server front-end.
//
// The paper's premise is a machine that stays up: applications are loaded
// onto a running million-core fabric, run in biological real time, and are
// replaced without a restart (§5.2, §6).  This front-end mirrors that
// operational model at the simulator level — one resident process owning a
// pool of engines (serial or sharded, chosen per request) and multiplexing
// many concurrent sessions over a small worker pool, each session walking
// the lifecycle *load network -> configure -> run/step -> stream spikes ->
// teardown*.  Transport is whatever wraps this class (examples/server_repl
// speaks a line protocol on stdio); the subsystem is the point.
//
// Capacity: admission is cost-aware.  Every session carries an estimated
// cost — (spec footprint + the network's estimated synapse count) ×
// declared biological time (admission_cost) — and
// the sum of resident costs is budgeted against `cost_budget` alongside the
// `max_sessions` count cap.  Opening a session that would overflow either
// limit evicts idle sessions (state Ready/Failed with no queued work) in
// descending cost order, ties broken least-recently-used — so when every
// spec declares no bio time (cost 0) the policy degenerates to the classic
// LRU.  If the new session still doesn't fit (every resident session busy,
// or the budget can't be freed) the open is rejected — overload sheds new
// work instead of degrading running sessions.
//
// See docs/SERVER.md for the protocol reference and worked examples.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "server/engine_pool.hpp"
#include "server/scheduler.hpp"
#include "server/session.hpp"

namespace spinn::server {

struct ServerConfig {
  /// Worker threads servicing sessions.  0 = deterministic manual mode
  /// (tests drive with poll()).
  std::uint32_t workers = 2;
  /// Resident-session cap; see eviction note above.
  std::size_t max_sessions = 8;
  /// Resident cost budget in admission_cost units ((spec footprint +
  /// estimated synapses) × declared bio ms).  0 = unlimited: only the
  /// count cap applies.
  std::uint64_t cost_budget = 0;
  /// Biological time serviced per scheduling quantum.  Smaller = fairer
  /// interleaving and fresher drains; larger = less locking overhead.
  TimeNs slice = kMillisecond;
};

struct ServerStats {
  std::uint64_t opened = 0;
  std::uint64_t rejected = 0;
  /// Of `rejected`: opens shed because the cost budget could not be freed.
  std::uint64_t rejected_cost = 0;
  std::uint64_t closed = 0;   // client closes (eviction counted separately)
  std::uint64_t evicted = 0;
  std::size_t resident = 0;
  /// Sum of resident session costs and the configured budget (0 = unlimited).
  std::uint64_t cost_resident = 0;
  std::uint64_t cost_budget = 0;
  /// Sessions waiting in the scheduler's ready queue at snapshot time.
  std::size_t queue_depth = 0;
  EnginePool::Stats engines;
};

class SessionServer {
 public:
  explicit SessionServer(const ServerConfig& cfg = ServerConfig{});
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Admit a session.  On success the build is already queued on a worker
  /// (so time-to-first-spike starts now, not at the first run request).
  /// Returns kInvalidSession with a reason in *error when the spec is
  /// invalid or the server is full of busy sessions.
  SessionId open(const SessionSpec& spec, std::string* error = nullptr)
      SPINN_EXCLUDES(mu_);

  /// Admit a session with its first run request already queued: one
  /// scheduler submission covers build + run, so a batched client
  /// (`open; run`) costs a single round-trip through the ready queue.
  /// `duration` also feeds the admission cost (max of it and bio_hint).
  SessionId open_and_run(const SessionSpec& spec, TimeNs duration,
                         std::string* error = nullptr) SPINN_EXCLUDES(mu_);

  /// Queue `duration` more biological time.  False for unknown/closed ids.
  bool run(SessionId id, TimeNs duration) SPINN_EXCLUDES(mu_);

  /// Queue a fault action on the session's chaos schedule (it becomes a
  /// root-actor simulation event at the session's next service slice).
  /// False with a reason for unknown/closed ids or out-of-range
  /// coordinates.
  bool fault(SessionId id, const FaultAction& action,
             std::string* error = nullptr) SPINN_EXCLUDES(mu_);

  /// Block until the session has no pending work.  False for unknown ids.
  bool wait(SessionId id) SPINN_EXCLUDES(mu_);

  /// Non-blocking wait probe: true while the session is known and still
  /// owes work (a wait() would block).  Unknown ids are not busy.
  bool busy(SessionId id) const SPINN_EXCLUDES(mu_);

  /// Invoke `fn` exactly once when the session next has no pending work
  /// (immediately, on this thread, if it is already idle; from a scheduler
  /// worker otherwise).  The non-blocking sibling of wait(): transports
  /// park pipelined `wait` requests on it instead of tying up a thread.
  /// False for unknown ids (`fn` is not invoked).
  bool notify_idle(SessionId id, std::function<void()> fn)
      SPINN_EXCLUDES(mu_);

  /// Spikes recorded since the caller's previous drain (empty for unknown
  /// or torn-down sessions).
  std::vector<neural::SpikeRecorder::Event> drain(SessionId id)
      SPINN_EXCLUDES(mu_);

  /// Snapshot of a session, resident or recently closed/evicted.  Unknown
  /// ids return a status with id == kInvalidSession.
  SessionStatus status(SessionId id) const SPINN_EXCLUDES(mu_);

  /// Tear the session down and release its engine.  False if unknown or
  /// already closed (double teardown is a clean no-op).
  bool close(SessionId id) SPINN_EXCLUDES(mu_);

  /// Manual-mode servicing (workers == 0): run one scheduling quantum on
  /// the calling thread.  Returns false when no session had queued work.
  bool poll();

  ServerStats stats() const SPINN_EXCLUDES(mu_);

 private:
  std::shared_ptr<Session> find_and_touch(SessionId id) SPINN_EXCLUDES(mu_);
  std::shared_ptr<Session> find(SessionId id) const SPINN_EXCLUDES(mu_);
  SessionId admit(const SessionSpec& spec, TimeNs initial_run,
                  std::string* error) SPINN_EXCLUDES(mu_);
  /// Count the rejection, format the reason, return kInvalidSession.
  SessionId reject_locked(bool over_budget, std::uint64_t cost,
                          std::string* error) SPINN_REQUIRES(mu_);
  /// Remove the costliest idle session (ties: least-recently-touched)
  /// from the resident map and tombstone it; nullptr when nothing is
  /// evictable.  Caller holds mu_ and must close() the returned session
  /// AFTER releasing it (teardown fires idle callbacks that may re-enter
  /// the server).
  std::shared_ptr<Session> evict_one_locked() SPINN_REQUIRES(mu_);
  void remember_locked(const SessionStatus& st) SPINN_REQUIRES(mu_);

  ServerConfig cfg_;
  EnginePool pool_;
  SessionScheduler scheduler_;

  mutable Mutex mu_;
  SessionId next_id_ SPINN_GUARDED_BY(mu_) = 1;
  std::uint64_t touch_clock_ SPINN_GUARDED_BY(mu_) = 0;
  struct Entry {
    std::shared_ptr<Session> session;
    std::uint64_t last_touch = 0;
    std::uint64_t cost = 0;  // admission_cost at open, fixed for life
  };
  std::map<SessionId, Entry> sessions_ SPINN_GUARDED_BY(mu_);
  std::uint64_t resident_cost_ SPINN_GUARDED_BY(mu_) = 0;
  /// Final status of closed/evicted sessions, so a client polling a
  /// just-evicted id gets "closed, evicted" rather than "unknown".
  std::map<SessionId, SessionStatus> tombstones_ SPINN_GUARDED_BY(mu_);
  ServerStats stats_ SPINN_GUARDED_BY(mu_);
};

}  // namespace spinn::server
