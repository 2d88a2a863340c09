// Seeded violation: Session::drain() takes the slice lock.  A worker holds
// that lock through a whole slice, so the drain — and the reactor serving
// it — would wait for the slice.  Every other client method is present and
// clean, so only the seeded line can make the rule fire.
// lint-expect: session-client-lock
// lint-path: src/server/session.cpp
#include <vector>

#include "common/thread_annotations.hpp"

namespace spinn::server {

class Session {
 public:
  std::vector<int> drain();
  int status() const;
  bool has_work() const;
  bool request_run(long duration);
  bool schedule_fault(int action);
  void notify_idle(int fn);
  void wait_idle();

 private:
  mutable Mutex mu_;
  mutable Mutex ctl_;
  CondVar idle_cv_;
  std::vector<int> published_;
  long requested_ = 0;
};

std::vector<int> Session::drain() {
  MutexLock slice(&mu_);
  MutexLock lk(&ctl_);
  std::vector<int> out;
  out.swap(published_);
  return out;
}

int Session::status() const {
  MutexLock lk(&ctl_);
  return static_cast<int>(published_.size());
}

bool Session::has_work() const {
  MutexLock lk(&ctl_);
  return requested_ > 0;
}

bool Session::request_run(long duration) {
  MutexLock lk(&ctl_);
  requested_ += duration;
  return true;
}

bool Session::schedule_fault(int action) {
  MutexLock lk(&ctl_);
  return action >= 0;
}

void Session::notify_idle(int fn) {
  MutexLock lk(&ctl_);
  published_.push_back(fn);
}

void Session::wait_idle() {
  MutexLock lk(&ctl_);
  while (requested_ > 0) idle_cv_.wait(lk);
}

}  // namespace spinn::server
