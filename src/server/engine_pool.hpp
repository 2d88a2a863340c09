// The engine pool: reuse simulation engines across sessions.
//
// Constructing a sharded engine spawns a worker-thread pool; constructing
// any engine allocates per-shard contexts.  A long-lived server doing this
// per request would pay machine bring-up costs on the critical path of every
// session, so finished sessions return their engine here and the next
// session with a matching configuration takes it over.  Correctness rests on
// ISimulationEngine::reset(): a reused engine is bit-indistinguishable from
// a freshly-constructed one (tests/server_test.cpp EngineReuse* pins it).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "sim/engine.hpp"

namespace spinn::server {

class EnginePool {
 public:
  /// Idle engines kept; beyond this, returned engines are simply destroyed
  /// (bounding the resident worker threads and queue memory).
  static constexpr std::size_t kMaxIdle = 8;

  EnginePool() = default;
  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  /// RAII lease on an engine: hands the engine back to the pool when
  /// destroyed (or on an explicit release()).  Movable, not copyable.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        cfg_ = other.cfg_;
        engine_ = std::move(other.engine_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    ~Lease() { release(); }

    sim::ISimulationEngine* get() const { return engine_.get(); }
    sim::ISimulationEngine& operator*() const { return *engine_; }
    explicit operator bool() const { return engine_ != nullptr; }

    /// Return the engine to the pool now.  Safe to call repeatedly.
    void release() {
      if (pool_ != nullptr && engine_ != nullptr) {
        pool_->give_back(cfg_, std::move(engine_));
      }
      pool_ = nullptr;
      engine_.reset();
    }

   private:
    friend class EnginePool;
    Lease(EnginePool* pool, const sim::EngineConfig& cfg,
          std::unique_ptr<sim::ISimulationEngine> engine)
        : pool_(pool), cfg_(cfg), engine_(std::move(engine)) {}

    EnginePool* pool_ = nullptr;
    sim::EngineConfig cfg_{};
    std::unique_ptr<sim::ISimulationEngine> engine_;
  };

  /// Lease an engine for `cfg`: an idle engine with the same (kind, shards,
  /// threads) request when available, otherwise a new one.  The engine's
  /// pre-lease state is unspecified — the borrower is the reset authority
  /// (System's borrowed-engine constructor resets under the machine seed),
  /// so the lease itself never pays a redundant reset pass.
  Lease acquire(const sim::EngineConfig& cfg) SPINN_EXCLUDES(mu_);

  struct Stats {
    std::uint64_t created = 0;  // engines constructed
    std::uint64_t reused = 0;   // acquisitions served from the idle list
    std::size_t idle = 0;       // engines currently pooled
  };
  Stats stats() const SPINN_EXCLUDES(mu_);

 private:
  friend class Lease;

  static bool same_request(const sim::EngineConfig& a,
                           const sim::EngineConfig& b) {
    return a.kind == b.kind && a.shards == b.shards && a.threads == b.threads;
  }

  void give_back(const sim::EngineConfig& cfg,
                 std::unique_ptr<sim::ISimulationEngine> engine)
      SPINN_EXCLUDES(mu_);

  struct Idle {
    sim::EngineConfig cfg;
    std::unique_ptr<sim::ISimulationEngine> engine;
  };

  mutable Mutex mu_;
  std::vector<Idle> idle_ SPINN_GUARDED_BY(mu_);
  std::uint64_t created_ SPINN_GUARDED_BY(mu_) = 0;
  std::uint64_t reused_ SPINN_GUARDED_BY(mu_) = 0;
};

}  // namespace spinn::server
