#include "server/server.hpp"

namespace spinn::server {

SessionServer::SessionServer(const ServerConfig& cfg)
    : cfg_(cfg), scheduler_(cfg.workers, cfg.slice) {}

SessionServer::~SessionServer() {
  // Stop workers first so no slice is in flight, then tear sessions down
  // (returning their engines to the pool, which outlives them by member
  // order: pool_ is declared before sessions_).
  scheduler_.stop();
  std::map<SessionId, Entry> doomed;
  {
    MutexLock lk(&mu_);
    doomed.swap(sessions_);
  }
  for (auto& [id, entry] : doomed) entry.session->close(false);
}

SessionId SessionServer::open(const SessionSpec& spec, std::string* error) {
  return admit(spec, 0, error);
}

SessionId SessionServer::open_and_run(const SessionSpec& spec,
                                      TimeNs duration, std::string* error) {
  return admit(spec, duration, error);
}

SessionId SessionServer::admit(const SessionSpec& spec, TimeNs initial_run,
                               std::string* error) {
  if (!validate(spec, error)) {
    MutexLock lk(&mu_);
    ++stats_.rejected;
    return kInvalidSession;
  }
  const std::uint64_t cost = admission_cost(spec, initial_run);
  std::shared_ptr<Session> session;
  // Evicted sessions are torn down after mu_ is released: close() fires
  // queued notify_idle callbacks, which may call back into this server.
  std::vector<std::shared_ptr<Session>> victims;
  {
    MutexLock lk(&mu_);
    if (cfg_.cost_budget > 0 && cost > cfg_.cost_budget) {
      ++stats_.rejected;
      ++stats_.rejected_cost;
      if (error != nullptr) {
        // Name the size term: a client whose net was shed needs to know
        // whether to shrink the machine, the connectivity or the declared
        // bio time.
        *error = "session cost " + std::to_string(cost) + " (footprint " +
                 std::to_string(admission_footprint(spec)) + " incl ~" +
                 std::to_string(estimated_synapses(spec)) +
                 " synapses, per declared ms) exceeds the whole budget " +
                 std::to_string(cfg_.cost_budget);
      }
      return kInvalidSession;
    }
    // Feasibility before any teardown: would evicting every idle session
    // admit the new one?  A shed open must not cost resident sessions
    // their state — reject without touching anything when it can't fit.
    // Rejection leaves `session` null; victims evicted before a mid-loop
    // rejection (a session turning busy under our feet) are still closed
    // explicitly below, outside mu_ and with their evicted flag set.
    std::size_t idle_count = 0;
    std::uint64_t idle_cost = 0;
    for (const auto& [sid, entry] : sessions_) {
      if (entry.session->has_work()) continue;
      ++idle_count;
      idle_cost += entry.cost;
    }
    if (sessions_.size() - idle_count >= cfg_.max_sessions) {
      return reject_locked(/*over_budget=*/false, cost, error);
    }
    if (cfg_.cost_budget > 0 &&
        resident_cost_ - idle_cost + cost > cfg_.cost_budget) {
      return reject_locked(/*over_budget=*/true, cost, error);
    }
    // Evict until both the count cap and the cost budget admit the new
    // session; each eviction removes the costliest idle session first, so
    // the budget is freed with the fewest teardowns.  (A session can turn
    // busy between the feasibility scan and its eviction — the loop then
    // falls back to rejecting, having only evicted sessions that were
    // genuinely idle.)
    bool admitted = true;
    while (sessions_.size() >= cfg_.max_sessions ||
           (cfg_.cost_budget > 0 &&
            resident_cost_ + cost > cfg_.cost_budget)) {
      std::shared_ptr<Session> victim = evict_one_locked();
      if (!victim) {
        reject_locked(cfg_.cost_budget > 0 &&
                          resident_cost_ + cost > cfg_.cost_budget,
                      cost, error);
        admitted = false;
        break;
      }
      victims.push_back(std::move(victim));
    }
    if (admitted) {
      const SessionId id = next_id_++;
      session = std::make_shared<Session>(id, spec, pool_);
      sessions_[id] = Entry{session, ++touch_clock_, cost};
      resident_cost_ += cost;
      ++stats_.opened;
    }
  }
  // Tear the victims down now (engines back to the pool), outside mu_ —
  // close() fires idle callbacks that may re-enter the server — and
  // before the new session's build is submitted, so the pool can recycle
  // their engines.
  for (const auto& v : victims) v->close(/*evicted=*/true);
  if (!session) return kInvalidSession;
  if (initial_run > 0) session->request_run(initial_run);
  // Build eagerly on a worker: time-to-first-spike starts at open.  For
  // open_and_run the same submission also covers the first run request.
  scheduler_.submit(session);
  return session->id();
}

SessionId SessionServer::reject_locked(bool over_budget, std::uint64_t cost,
                                       std::string* error) {
  ++stats_.rejected;
  if (over_budget) ++stats_.rejected_cost;
  if (error != nullptr) {
    *error = over_budget
                 ? "cost budget exhausted: " +
                       std::to_string(resident_cost_) + "/" +
                       std::to_string(cfg_.cost_budget) +
                       " in use, session needs " + std::to_string(cost) +
                       ", not enough idle to evict"
                 : "server full: " + std::to_string(sessions_.size()) +
                       " resident sessions, none idle";
  }
  return kInvalidSession;
}

std::shared_ptr<Session> SessionServer::evict_one_locked() {
  auto victim = sessions_.end();
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if (it->second.session->has_work()) continue;  // busy: not evictable
    if (victim == sessions_.end() ||
        it->second.cost > victim->second.cost ||
        (it->second.cost == victim->second.cost &&
         it->second.last_touch < victim->second.last_touch)) {
      victim = it;
    }
  }
  if (victim == sessions_.end()) return nullptr;
  std::shared_ptr<Session> s = victim->second.session;
  resident_cost_ -= victim->second.cost;
  sessions_.erase(victim);
  // Tombstone from the pre-close snapshot; the caller closes the session
  // once mu_ is released (close fires idle callbacks that may re-enter
  // the server).
  SessionStatus st = s->status();
  st.state = SessionState::Closed;
  st.evicted = true;
  remember_locked(st);
  ++stats_.evicted;
  return s;
}

void SessionServer::remember_locked(const SessionStatus& st) {
  tombstones_[st.id] = st;
  // Bound the tombstone map: a long-lived server sheds the oldest ids.
  while (tombstones_.size() > 4 * cfg_.max_sessions + 16) {
    tombstones_.erase(tombstones_.begin());
  }
}

std::shared_ptr<Session> SessionServer::find_and_touch(SessionId id) {
  MutexLock lk(&mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return nullptr;
  it->second.last_touch = ++touch_clock_;
  return it->second.session;
}

std::shared_ptr<Session> SessionServer::find(SessionId id) const {
  MutexLock lk(&mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.session;
}

bool SessionServer::run(SessionId id, TimeNs duration) {
  auto s = find_and_touch(id);
  if (!s || !s->request_run(duration)) return false;
  scheduler_.submit(s);
  return true;
}

bool SessionServer::fault(SessionId id, const FaultAction& action,
                          std::string* error) {
  auto s = find_and_touch(id);
  if (!s) {
    if (error != nullptr) *error = "unknown or closed session";
    return false;
  }
  if (!s->schedule_fault(action, error)) return false;
  // The action needs a service slice to enter the simulation timeline even
  // if no run is queued behind it.
  scheduler_.submit(s);
  return true;
}

bool SessionServer::wait(SessionId id) {
  auto s = find(id);
  if (!s) return false;
  s->wait_idle();
  return true;
}

bool SessionServer::busy(SessionId id) const {
  auto s = find(id);
  return s && s->has_work();
}

bool SessionServer::notify_idle(SessionId id, std::function<void()> fn) {
  auto s = find(id);
  if (!s) return false;
  s->notify_idle(std::move(fn));
  return true;
}

std::vector<neural::SpikeRecorder::Event> SessionServer::drain(SessionId id) {
  auto s = find_and_touch(id);
  return s ? s->drain() : std::vector<neural::SpikeRecorder::Event>{};
}

SessionStatus SessionServer::status(SessionId id) const {
  auto s = find(id);
  if (s) return s->status();
  MutexLock lk(&mu_);
  auto it = tombstones_.find(id);
  return it == tombstones_.end() ? SessionStatus{} : it->second;
}

bool SessionServer::close(SessionId id) {
  std::shared_ptr<Session> s;
  {
    MutexLock lk(&mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    s = it->second.session;
    resident_cost_ -= it->second.cost;
    sessions_.erase(it);
  }
  // Tombstone from the status after teardown: where the session stopped,
  // at most one slice past what a client saw before the close.
  const bool first = s->close(false);
  const SessionStatus st = s->status();
  {
    MutexLock lk(&mu_);
    remember_locked(st);
    ++stats_.closed;
  }
  return first;
}

bool SessionServer::poll() { return scheduler_.drive(); }

ServerStats SessionServer::stats() const {
  MutexLock lk(&mu_);
  ServerStats st = stats_;
  st.resident = sessions_.size();
  st.cost_resident = resident_cost_;
  st.cost_budget = cfg_.cost_budget;
  st.queue_depth = scheduler_.depth();
  st.engines = pool_.stats();
  return st;
}

}  // namespace spinn::server
