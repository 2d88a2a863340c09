#include "server/engine_pool.hpp"

namespace spinn::server {

EnginePool::Lease EnginePool::acquire(const sim::EngineConfig& cfg) {
  std::unique_ptr<sim::ISimulationEngine> engine;
  {
    MutexLock lk(&mu_);
    for (std::size_t i = 0; i < idle_.size(); ++i) {
      if (same_request(idle_[i].cfg, cfg)) {
        engine = std::move(idle_[i].engine);
        idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(i));
        ++reused_;
        break;
      }
    }
    if (!engine) ++created_;
  }
  // The borrower reseeds (see header); the construction seed is a placeholder.
  if (!engine) engine = sim::make_engine(cfg, 1);
  return Lease(this, cfg, std::move(engine));
}

void EnginePool::give_back(const sim::EngineConfig& cfg,
                           std::unique_ptr<sim::ISimulationEngine> engine) {
  {
    MutexLock lk(&mu_);
    if (idle_.size() >= kMaxIdle) return;  // over capacity: destroyed
  }
  // Worth pooling: drop the dead session's queued closures now — they may
  // capture pointers into a machine being destroyed, and an idle engine
  // should not pin a whole scenario's memory.  (Destruction alone releases
  // them too, which is why the over-capacity path skips this.)
  engine->reset(0);
  MutexLock lk(&mu_);
  // Concurrent returns may briefly overshoot kMaxIdle by the number of
  // racing give_backs; acquire() drains it back down.
  idle_.push_back(Idle{cfg, std::move(engine)});
}

EnginePool::Stats EnginePool::stats() const {
  MutexLock lk(&mu_);
  return Stats{created_, reused_, idle_.size()};
}

}  // namespace spinn::server
