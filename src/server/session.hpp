// One server session: an isolated simulation with a lifecycle of
//
//   load network -> configure -> run/step -> stream spikes -> teardown
//
// A session compiles its SessionSpec into a core::System on first service
// (on a scheduler worker, off the client's thread), runs requested
// biological time in bounded slices so many sessions share few workers
// fairly, and exposes incremental spike drains between slices so a client
// can poll or stream results mid-run.  Sessions are isolated: each owns its
// engine lease (own RNG streams via the engine reset) and its own recorder.
//
// Thread model: every public method is safe to call from any thread.  Two
// locks split the state.  The slice lock (`mu_`) guards the simulation — the
// system, its engine lease, network and fault controller — and a scheduler
// worker holds it through one build or one slice.  The control lock
// (`ctl_`, a leaf under `mu_`) guards what clients read and write: the
// lifecycle state, the run target, queued faults, idle callbacks, and the
// spikes and progress that service() publishes at every slice boundary.
// Client methods (drain, status, has_work, request_run, schedule_fault,
// notify_idle, wait_idle) take only `ctl_`, which is never held across a
// build, a slice, a lease release or a callback, so they never wait for a
// slice and see the session as of its last completed slice.  close() marks
// the session closed under `ctl_` (no further slice starts) and then takes
// `mu_` to tear down, so it waits for at most the slice in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/fault_controller.hpp"
#include "server/engine_pool.hpp"
#include "server/spec.hpp"

namespace spinn::server {

using SessionId = std::uint64_t;

/// 0 is never a valid session id (open() returns it on rejection).
inline constexpr SessionId kInvalidSession = 0;

enum class SessionState : std::uint8_t {
  Pending,  // accepted; system not yet built (build runs on a worker)
  Ready,    // built and idle: runnable, drainable, evictable
  Running,  // a worker is advancing biological time
  Failed,   // build or load failed; error() says why
  Closed,   // torn down (client close, eviction or server shutdown)
};

const char* to_string(SessionState s);

/// A point-in-time snapshot of everything a client can ask about a session.
struct SessionStatus {
  SessionId id = kInvalidSession;
  SessionState state = SessionState::Pending;
  bool evicted = false;
  TimeNs bio_now = 0;     // biological time simulated so far
  TimeNs bio_target = 0;  // biological time requested so far
  std::size_t spikes_recorded = 0;
  std::size_t spikes_drained = 0;
  std::size_t chips_alive = 0;  // boot report (0 when spec.boot == false)
  bool load_ok = false;
  std::string error;
  // Fault-schedule aggregates (all zero for a fault-free session).
  std::size_t faults_scheduled = 0;
  std::size_t faults_executed = 0;
  std::size_t migrations = 0;
  std::size_t routers_rewritten = 0;
  TimeNs recovery_ns = 0;
  std::uint64_t spikes_lost = 0;
};

class Session {
 public:
  Session(SessionId id, SessionSpec spec, EnginePool& pool);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SessionId id() const { return id_; }
  const SessionSpec& spec() const { return spec_; }

  /// Extend the biological-time target.  Work happens on scheduler workers;
  /// returns false once the session is closed or failed.
  bool request_run(TimeNs duration) SPINN_EXCLUDES(ctl_);

  /// Queue a fault for the session's chaos schedule.  The action is
  /// validated against the spec's machine dimensions here; it is handed to
  /// the fault controller (and becomes a root-actor simulation event) at
  /// the next service slice, so serial, sharded and wire-driven sessions
  /// see the identical fault timeline.  False with a reason for
  /// out-of-range coordinates or a closed/failed session.
  bool schedule_fault(const FaultAction& action, std::string* error)
      SPINN_EXCLUDES(ctl_);

  /// Perform one work quantum on the calling (worker) thread: build the
  /// system if still Pending, then advance at most `slice` of biological
  /// time, and publish the slice's spikes and progress.  Returns true
  /// while more work is pending.
  bool service(TimeNs slice) SPINN_EXCLUDES(mu_, ctl_);

  /// True while the session needs worker time (build pending, bio time
  /// still owed or faults queued), as of the last completed slice.
  bool has_work() const SPINN_EXCLUDES(ctl_);

  /// Block until the session has no pending work (or is closed/failed).
  void wait_idle() SPINN_EXCLUDES(ctl_);

  /// Invoke `fn` exactly once when the session next has no pending work:
  /// immediately (on the calling thread) if already idle, otherwise from
  /// whichever thread drains the work (a scheduler worker, or close()).
  /// This is the non-blocking sibling of wait_idle() — transports park a
  /// pipelined `wait` on it instead of tying up a thread.  `fn` must not
  /// call back into the session.
  void notify_idle(std::function<void()> fn) SPINN_EXCLUDES(ctl_);

  /// Spikes of the slices completed since the previous drain, in recording
  /// order.  Empty after teardown.
  std::vector<neural::SpikeRecorder::Event> drain() SPINN_EXCLUDES(ctl_);

  /// The session as of its last completed slice.
  SessionStatus status() const SPINN_EXCLUDES(ctl_);

  /// Tear down: destroy the system, return the engine to the pool.  Waits
  /// for at most the slice in flight.  Safe to call repeatedly and
  /// concurrently; only the first call acts (returns true).  `evicted`
  /// marks the teardown as server-initiated in status(), which afterwards
  /// reports where the session stopped.
  bool close(bool evicted = false) SPINN_EXCLUDES(mu_, ctl_);

  /// Scheduler queue-membership flag (dedup: a session sits in the ready
  /// queue at most once).  try_mark_queued() returns true to the single
  /// caller that acquired queue membership.
  bool try_mark_queued() {
    return !queued_.exchange(true, std::memory_order_acq_rel);
  }
  void mark_unqueued() { queued_.store(false, std::memory_order_release); }

 private:
  /// What status() reports of the simulation, refreshed by publish_locked().
  struct Progress {
    TimeNs bio_now = 0;
    std::size_t spikes_recorded = 0;
    std::size_t chips_alive = 0;
    bool load_ok = false;
    FaultTotals faults;
  };

  /// Timed wrapper (session.build span + server.build_ns histogram)
  /// around the actual compile in build_impl_locked().  Returns the
  /// failure reason, empty on success.
  std::string build_locked() SPINN_REQUIRES(mu_) SPINN_EXCLUDES(ctl_);
  std::string build_impl_locked() SPINN_REQUIRES(mu_) SPINN_EXCLUDES(ctl_);
  /// Slice start: take the queued faults and, when bio time is owed, mark
  /// the session Running and return the step to run.  Returns false when
  /// the session has no system to advance (failed or closed).
  bool start_slice_locked(TimeNs slice, TimeNs* step,
                          std::vector<FaultAction>* faults)
      SPINN_REQUIRES(mu_, ctl_);
  /// The slice itself, under the slice lock only: hand `faults` to the
  /// controller, advance `step`, and return a session-fatal outcome — a
  /// thrown run, a failed migration, a glitch-link deadlock-watchdog
  /// expiry — as a reason (empty when the session carries on).
  std::string run_slice_locked(const std::vector<FaultAction>& faults,
                               TimeNs step) SPINN_REQUIRES(mu_)
      SPINN_EXCLUDES(ctl_);
  /// Slice boundary: apply `failure` (or a finished build's Ready), move
  /// the recorder's new spikes to the published buffer and refresh the
  /// published progress.  Allocates nothing when no spike was recorded.
  void publish_locked(const std::string& failure) SPINN_REQUIRES(mu_, ctl_);
  bool work_pending_locked() const SPINN_REQUIRES(ctl_);

  const SessionId id_;
  const SessionSpec spec_;
  EnginePool& pool_;
  /// Wall time at open — the TTFS (time-to-first-spike) epoch.
  const std::int64_t opened_wall_ns_;

  /// The slice lock: held by a worker through one build or one slice.
  mutable Mutex mu_;
  /// The control lock: a leaf, taken after `mu_` when both are held, and
  /// never held across a build, a slice, a lease release or a callback.
  mutable Mutex ctl_ SPINN_ACQUIRED_AFTER(mu_);
  /// Waits run under `ctl_`.
  CondVar idle_cv_;
  std::atomic<bool> queued_{false};

  // ---- slice state (mu_) ----
  /// Engine time when the run phase began (post-boot).
  TimeNs run_base_ SPINN_GUARDED_BY(mu_) = 0;
  EnginePool::Lease lease_ SPINN_GUARDED_BY(mu_);
  std::unique_ptr<System> system_ SPINN_GUARDED_BY(mu_);
  boot::BootReport boot_report_ SPINN_GUARDED_BY(mu_);
  map::LoadReport load_report_ SPINN_GUARDED_BY(mu_);
  /// The built network, retained for the session's life: the fault
  /// controller's migrations regenerate routing from it against the live
  /// placement (load_report_.placement).
  std::unique_ptr<neural::Network> net_ SPINN_GUARDED_BY(mu_);
  /// Fault orchestration; destroyed only after the engine lease resets the
  /// event queue (queued fault/glitch closures point into it).
  std::unique_ptr<FaultController> faults_ SPINN_GUARDED_BY(mu_);
  /// server.ttfs_ns fires once, at the first slice that recorded a spike.
  bool ttfs_observed_ SPINN_GUARDED_BY(mu_) = false;

  // ---- control state (ctl_) ----
  SessionState state_ SPINN_GUARDED_BY(ctl_) = SessionState::Pending;
  bool evicted_ SPINN_GUARDED_BY(ctl_) = false;
  /// Total biological time asked for.
  TimeNs requested_ SPINN_GUARDED_BY(ctl_) = 0;
  /// Actions accepted before the next service slice hands them over.
  std::vector<FaultAction> pending_faults_ SPINN_GUARDED_BY(ctl_);
  std::string error_ SPINN_GUARDED_BY(ctl_);
  /// One-shot callbacks waiting for the next idle instant (see notify_idle).
  /// Swapped out under ctl_ and *fired after release*: a callback may
  /// re-enter the scheduler or write a transport's wakeup pipe.
  std::vector<std::function<void()>> idle_callbacks_ SPINN_GUARDED_BY(ctl_);
  std::size_t drained_total_ SPINN_GUARDED_BY(ctl_) = 0;
  /// Spikes of completed slices not yet drained, in recording order.
  std::vector<neural::SpikeRecorder::Event> published_ SPINN_GUARDED_BY(ctl_);
  Progress progress_ SPINN_GUARDED_BY(ctl_);
};

}  // namespace spinn::server
