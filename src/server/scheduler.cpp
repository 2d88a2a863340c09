#include "server/scheduler.hpp"

namespace spinn::server {

SessionScheduler::SessionScheduler(std::uint32_t workers, TimeNs slice)
    : slice_(slice) {
  workers_.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

SessionScheduler::~SessionScheduler() { stop(); }

void SessionScheduler::submit(const std::shared_ptr<Session>& session) {
  if (!session->try_mark_queued()) return;  // already in the queue
  {
    MutexLock lk(&mu_);
    ready_.push_back(session);
  }
  cv_.notify_one();
}

std::shared_ptr<Session> SessionScheduler::pop() {
  MutexLock lk(&mu_);
  if (ready_.empty()) return nullptr;
  auto s = ready_.front();
  ready_.pop_front();
  return s;
}

std::size_t SessionScheduler::depth() const {
  MutexLock lk(&mu_);
  return ready_.size();
}

bool SessionScheduler::drive() {
  std::shared_ptr<Session> s = pop();
  if (!s) return false;
  const bool more = s->service(slice_);
  if (more) {
    // Round-robin: back of the queue, queued flag kept.
    {
      MutexLock lk(&mu_);
      ready_.push_back(s);
    }
    cv_.notify_one();
  } else {
    s->mark_unqueued();
    // Close the unqueue/submit race: a run request that arrived while we
    // were finishing saw the session still queued and skipped its submit.
    if (s->has_work()) submit(s);
  }
  return true;
}

void SessionScheduler::worker_main() {
  for (;;) {
    {
      // Explicit predicate loop (not a wait lambda): stopping_ and ready_
      // are guarded, and the analysis can't see into a predicate lambda.
      MutexLock lk(&mu_);
      while (!stopping_ && ready_.empty()) cv_.wait(lk);
      if (stopping_) return;
    }
    drive();
  }
}

void SessionScheduler::stop() {
  {
    MutexLock lk(&mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

}  // namespace spinn::server
