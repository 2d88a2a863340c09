#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/clock.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace spinn::sim {

namespace {

/// The shard context whose event is executing on this thread (engine-global:
/// only one engine drives a given thread at a time).
thread_local Simulator* tls_current_context = nullptr;

/// Publishes `ctx` as this thread's executing context for one scope, so an
/// event that throws leaves no stale context behind.
struct ContextScope {
  explicit ContextScope(Simulator* ctx) { tls_current_context = ctx; }
  ~ContextScope() { tls_current_context = nullptr; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;
};

std::uint32_t resolve_count(std::uint32_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

// Window/barrier/merge accounting — the shard-imbalance surface the
// reactor-scaling roadmap items read; the window histogram's count is the
// number of windows.  Registration happens once on first window; the window
// loop then only touches lock-free references.
obs::Histogram& window_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "sim.window_wall_ns", 0, 100'000'000, 1000);
  return h;
}
obs::Histogram& barrier_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "sim.barrier_wall_ns", 0, 100'000'000, 1000);
  return h;
}
obs::Histogram& merge_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "sim.merge_wall_ns", 0, 100'000'000, 1000);
  return h;
}

}  // namespace

Simulator* ShardedSimulator::current_context() { return tls_current_context; }

ShardedSimulator::ShardedSimulator(std::uint64_t seed, std::uint32_t shards,
                                   std::uint32_t threads) {
  const std::uint32_t n = resolve_count(shards);
  num_threads_ = std::min(resolve_count(threads), n);
  worker_executed_.assign(num_threads_, 0);
  shards_.resize(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    // Shard 0 is the root context and must match the serial engine's RNG
    // stream exactly; the other shards get order-independent forks.
    const std::uint64_t shard_seed = s == 0 ? seed : Rng::fork(seed, s).next();
    shards_[s].ctx = std::make_unique<Simulator>(shard_seed);
    shards_[s].ctx->engine_ = this;
    shards_[s].ctx->shard_ = s;
    shards_[s].outbox.resize(n);
  }
}

ShardedSimulator::~ShardedSimulator() {
  if (!workers_.empty()) {
    shutdown_.store(true, std::memory_order_release);
    release_window();
    for (auto& w : workers_) w.join();
  }
}

void ShardedSimulator::map_actors(ActorId num_actors) {
  if (num_actors < 1) num_actors = 1;
  if (mapped_actors_ > 1 && mapped_actors_ != num_actors) {
    throw std::logic_error("ShardedSimulator: actors already mapped");
  }
  mapped_actors_ = num_actors;
  shard_of_actor_.assign(num_actors, 0);
  const std::uint64_t chips = num_actors - 1;  // actor 0 is the root
  const std::uint64_t s = shards_.size();
  for (ActorId a = 1; a < num_actors; ++a) {
    // Contiguous balanced chip-index ranges; chip index order is the
    // placement scan order, so populations stay mostly intra-shard.
    shard_of_actor_[a] =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(a - 1) * s /
                                   chips);
  }
}

Simulator& ShardedSimulator::context_of(ActorId actor) {
  return *shards_[shard_of_actor_.at(actor)].ctx;
}

void ShardedSimulator::constrain_lookahead(TimeNs lookahead) {
  if (lookahead <= 0) {
    lookahead_ = 0;  // unknown/zero latency: parallel windows are unsafe
    return;
  }
  lookahead_ = lookahead_ == 0 ? lookahead : std::min(lookahead_, lookahead);
}

TimeNs ShardedSimulator::now() const {
  TimeNs t = 0;
  for (const auto& s : shards_) t = std::max(t, s.ctx->now());
  return t;
}

bool ShardedSimulator::empty() const {
  for (const auto& s : shards_) {
    if (!s.ctx->queue().empty()) return false;
  }
  return true;
}

std::size_t ShardedSimulator::pending() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s.ctx->queue().pending();
  return n;
}

std::uint64_t ShardedSimulator::executed() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s.ctx->queue().executed();
  return n;
}

void ShardedSimulator::post_handoff(Simulator& src, TimeNs delay,
                                    ActorId exec_actor, EventAction&& action,
                                    EventPriority priority) {
  EventQueue& q = src.queue_;
  const TimeNs when = q.now() + delay;
  const std::uint32_t dst = shard_of_actor_.at(exec_actor);
  if (dst == src.shard_) {
    q.schedule_handoff(when, exec_actor, std::move(action), priority);
    return;
  }
  // Fail fast on the conservative-window precondition: a cross-shard
  // handoff arriving sooner than the lookahead could land inside the window
  // that produced it, which would only surface later as a cryptic
  // foreign-event error at a barrier (and only at some shard counts).
  if (lookahead_ > 0 && delay < lookahead_) {
    throw std::logic_error(
        "ShardedSimulator: cross-shard handoff delay " +
        std::to_string(delay) + " ns < lookahead window " +
        std::to_string(lookahead_) + " ns");
  }
  // The key is stamped on the sender's queue (sender actor, sender counter)
  // so it is identical to what the serial engine would have assigned.
  const EventKey key = q.make_handoff_key(when, priority);
  if (window_active_) {
    shards_[src.shard_].outbox[dst].push_back(
        Mail{key, exec_actor, std::move(action)});
  } else {
    shards_[dst].ctx->queue().insert_foreign(key, exec_actor,
                                             std::move(action));
  }
}

TimeNs ShardedSimulator::earliest_root_when() const {
  TimeNs t = kTimeNever;
  for (const auto& s : shards_) {
    t = std::min(t, s.ctx->queue().earliest_root_when());
  }
  return t;
}

void ShardedSimulator::reset(std::uint64_t seed) {
  // Workers are parked between runs, so everything here is coordinator-only.
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    const std::uint64_t shard_seed =
        s == 0 ? seed : Rng::fork(seed, s).next();
    shards_[s].ctx->reset(shard_seed);
    for (auto& box : shards_[s].outbox) box.clear();
  }
  shard_of_actor_.assign(1, 0);
  mapped_actors_ = 1;
  lookahead_ = 0;
  window_active_ = false;
  windows_opened_ = 0;
  busiest_worker_events_ = 0;
  {
    MutexLock lk(&error_mutex_);
    pending_error_ = nullptr;
  }
}

int ShardedSimulator::min_head_shard(TimeNs limit) const {
  int best = -1;
  EventKey best_key{};
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const EventQueue& q = shards_[i].ctx->queue();
    if (q.empty()) continue;
    const EventKey k = q.peek_key();
    if (k.when > limit) continue;
    if (best < 0 || k < best_key) {
      best = static_cast<int>(i);
      best_key = k;
    }
  }
  return best;
}

bool ShardedSimulator::step() {
  const int best = min_head_shard(std::numeric_limits<TimeNs>::max());
  if (best < 0) {
    // Drained: the reserved events that were never inserted would have
    // run by now, and the last of them would have synced every shard's
    // clock to its instant (step_shard).
    TimeNs last = 0;
    for (const auto& s : shards_) {
      last = std::max(last, s.ctx->queue().latest_reserved());
    }
    for (auto& s : shards_) s.ctx->queue().advance_to(last);
    return false;
  }
  step_shard(static_cast<std::size_t>(best));
  return true;
}

void ShardedSimulator::step_shard(std::size_t shard) {
  // Sync every shard's clock to the global instant first: the event may
  // reach across shard boundaries (boot-phase code does), and whatever it
  // touches must see the same now() the serial engine would show.
  const TimeNs when = shards_[shard].ctx->queue().peek_key().when;
  for (auto& s : shards_) s.ctx->queue().advance_to(when);
  Simulator* ctx = shards_[shard].ctx.get();
  const ContextScope running(ctx);
  ctx->queue().step();
}

std::uint64_t ShardedSimulator::run_until(TimeNs until) {
  // Each iteration takes the globally-earliest head.  Root-actor events
  // (boot-controller stragglers, host-side code, or top-level scheduling on
  // any shard context) may reach across shard boundaries, so they run only
  // on the merge, which is the serial schedule stored across K heaps.  Every
  // head strictly below the earliest root event opens a window bounded
  // (exclusively) at that event's `when`: a far-future probe timer left by
  // an abandoned boot costs a step at its own time, not the whole span.
  // This is safe because (a) no window executes an event at or above its
  // bound, so the root event cannot run in a slice, and (b) any root event a
  // window creates arrives through a mailbox at >= send + lookahead >= bound
  // and is re-considered by the next iteration.  A window ends where a
  // cross-shard send could land; one shard has none, and several shards with
  // no lookahead have no window at all.
  const TimeNs width = shards_.size() > 1 ? lookahead_ : kTimeNever;
  if (width > 0) ensure_workers();
  std::uint64_t total = 0;
  for (;;) {
    const int best = min_head_shard(until);
    if (best < 0) break;
    const TimeNs t0 =
        shards_[static_cast<std::size_t>(best)].ctx->queue().peek_key().when;
    const TimeNs root_when = earliest_root_when();
    if (width == 0 || t0 >= root_when) {
      step_shard(static_cast<std::size_t>(best));
      ++total;
      continue;
    }
    // Final window when the remaining span fits inside the width and no
    // root event interposes: run events at exactly `until` too (run_until is
    // boundary-inclusive).  Any cross-shard send from a window [t0, bound)
    // arrives >= t0 + lookahead >= bound, so it is never needed inside the
    // window that produced it; a tighter root-bounded window is a fortiori
    // safe.
    const bool final_window = until - t0 < width && root_when > until;
    const TimeNs bound =
        final_window ? until : t0 + std::min(width, root_when - t0);
    ++windows_opened_;
    window_bound_ = bound;
    window_inclusive_ = final_window;
    window_active_ = true;
    // Telemetry: the window span covers release → barrier, the barrier
    // histogram isolates the wait for the other shards after this thread's
    // own slice ran — a hot barrier means shard imbalance, not load.
    const std::int64_t win_t0 = WallClock::now_ns();
    release_window();
    run_slice(0, bound, final_window);
    const std::int64_t barrier_t0 = WallClock::now_ns();
    await_workers();
    window_active_ = false;
    const std::int64_t barrier_t1 = WallClock::now_ns();
    window_hist().observe(barrier_t1 - win_t0);
    barrier_hist().observe(barrier_t1 - barrier_t0);
    obs::Tracer::global().complete("engine", "engine.window", win_t0,
                                   barrier_t1 - win_t0, "bound",
                                   static_cast<std::uint64_t>(bound));
    std::uint64_t busiest = 0;
    for (const std::uint64_t n : worker_executed_) {
      total += n;
      busiest = std::max(busiest, n);
    }
    busiest_worker_events_ += busiest;
    {
      MutexLock lk(&error_mutex_);
      if (pending_error_) {
        std::exception_ptr e = pending_error_;
        pending_error_ = nullptr;
        std::rethrow_exception(e);
      }
    }
    const std::int64_t merge_t0 = WallClock::now_ns();
    drain_mailboxes();
    const std::int64_t merge_t1 = WallClock::now_ns();
    merge_hist().observe(merge_t1 - merge_t0);
    obs::Tracer::global().complete("engine", "engine.merge", merge_t0,
                                   merge_t1 - merge_t0);
  }
  for (auto& s : shards_) s.ctx->queue().run_window(until, true);
  return total;
}

void ShardedSimulator::run_slice(std::uint32_t worker, TimeNs bound,
                                 bool inclusive) {
  std::uint64_t executed = 0;
  try {
    for (std::size_t s = worker; s < shards_.size(); s += num_threads_) {
      Simulator* ctx = shards_[s].ctx.get();
      const ContextScope running(ctx);
      executed += ctx->queue().run_window(bound, inclusive);
    }
  } catch (...) {
    // Surface on the coordinator after the barrier instead of escaping a
    // worker's stack (which would std::terminate the process).
    MutexLock lk(&error_mutex_);
    if (!pending_error_) pending_error_ = std::current_exception();
  }
  worker_executed_[worker] = executed;
}

void ShardedSimulator::drain_mailboxes() {
  for (auto& src : shards_) {
    for (std::size_t dst = 0; dst < src.outbox.size(); ++dst) {
      for (auto& mail : src.outbox[dst]) {
        shards_[dst].ctx->queue().insert_foreign(mail.key, mail.exec_actor,
                                                 std::move(mail.action));
      }
      src.outbox[dst].clear();
    }
  }
}

void ShardedSimulator::ensure_workers() {
  if (!workers_.empty() || num_threads_ <= 1) return;
  workers_.reserve(num_threads_ - 1);
  for (std::uint32_t w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

void ShardedSimulator::release_window() {
  phase_.fetch_add(1, std::memory_order_release);
  if (sleepers_.load(std::memory_order_acquire) > 0) {
    MutexLock lk(&wake_mutex_);
    wake_cv_.notify_all();
  }
}

void ShardedSimulator::await_workers() {
  const std::uint32_t need = num_threads_ - 1;
  while (done_.load(std::memory_order_acquire) != need) {
    std::this_thread::yield();
  }
  done_.store(0, std::memory_order_relaxed);
}

void ShardedSimulator::worker_main(std::uint32_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    int spins = 0;
    while (phase_.load(std::memory_order_acquire) == seen) {
      if (shutdown_.load(std::memory_order_acquire)) return;
      if (++spins < 4096) {
        std::this_thread::yield();
      } else {
        // Park until the coordinator opens the next window.
        sleepers_.fetch_add(1, std::memory_order_acq_rel);
        {
          // Explicit predicate loop (not a wait lambda); the predicate
          // reads only atomics, so nothing here needs wake_mutex_'s guard
          // — the mutex exists purely to pair with the condvar.
          MutexLock lk(&wake_mutex_);
          while (phase_.load(std::memory_order_acquire) == seen &&
                 !shutdown_.load(std::memory_order_acquire)) {
            wake_cv_.wait(lk);
          }
        }
        sleepers_.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    seen = phase_.load(std::memory_order_acquire);
    if (shutdown_.load(std::memory_order_acquire)) return;
    run_slice(worker, window_bound_, window_inclusive_);
    done_.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace spinn::sim
