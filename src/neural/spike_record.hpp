// Spike recording: an append-only log of (time, AER key) pairs, shared by
// all recording cores.  The host-side analogue is the spike data streamed
// back over Ethernet after a run.
//
// Worker threads must not share the log, so a spike recorded inside a
// sharded engine's event waits in its shard's buffer, stamped with the
// event's key, until merge().  The keys are shard-stable
// (sim/event_queue.hpp), so the merged log is bit-identical to what the
// serial engine records directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace spinn::neural {

class SpikeRecorder {
 public:
  struct Event {
    TimeNs time = 0;
    RoutingKey key = 0;
  };

  /// `shards`: the shard count of the engine whose events record here.
  explicit SpikeRecorder(std::size_t shards = 1) : buffers_(shards) {}

  /// Append to the log or, inside a shard's event, to that shard's buffer.
  /// A shard the recorder was not sized for throws std::out_of_range.
  void record(TimeNs time, RoutingKey key);

  /// Move the buffered spikes into the log in key order.  Call it with no
  /// shard running (System::run does, when the engine returns).  A shard
  /// runs its events in key order, and one event's spikes share one
  /// buffer, so a stable sort keeps their emission order.
  void merge();

  /// Events still held in the log: everything recorded in the default
  /// (retaining) mode, only the undrained tail under retain_drained(false).
  const std::vector<Event>& events() const { return events_; }
  /// Total events recorded over the recorder's lifetime (monotonic across
  /// drains in either retention mode).
  std::size_t count() const { return total_recorded_; }
  void clear() {
    events_.clear();
    for (auto& buf : buffers_) buf.clear();
    drain_pos_ = 0;
    total_recorded_ = 0;
    drained_total_ = 0;
  }

  /// Incremental retrieval: the events recorded since the previous drain,
  /// in recording order — the polling primitive a server session uses to
  /// stream spikes to a client mid-run.  By default the full log stays
  /// intact (events() still returns everything).
  std::vector<Event> drain() {
    std::vector<Event> out;
    drain_into(out);
    return out;
  }

  /// drain() into a caller's buffer: appends the new events to `out`, and
  /// does nothing when there are none.  In streaming mode an empty `out`
  /// takes the log's buffer itself instead of a copy, and the log reserves
  /// as much again for the next events.
  void drain_into(std::vector<Event>& out) {
    if (events_.size() == drain_pos_) return;
    drained_total_ += events_.size() - drain_pos_;
    if (!retain_drained_ && drain_pos_ == 0 && out.empty()) {
      const std::size_t handed = events_.size();
      out.swap(events_);
      events_.clear();
      events_.reserve(handed);
      return;
    }
    out.insert(out.end(),
               events_.begin() + static_cast<std::ptrdiff_t>(drain_pos_),
               events_.end());
    if (retain_drained_) {
      drain_pos_ = events_.size();
    } else {
      events_.clear();
      drain_pos_ = 0;
    }
  }

  /// Number of events already handed out by drain() or drain_into().
  std::size_t drained() const { return drained_total_; }

  /// Retention policy for drained events.  `false` = streaming mode:
  /// drain() releases the handed-out prefix, so a long-lived session's
  /// memory is bounded by the drain interval, not the run length (server
  /// sessions run this way; count()/drained() stay monotonic).  Default
  /// `true`: keep the whole log for post-run analysis (events(),
  /// count_in_key_range).
  void retain_drained(bool keep) { retain_drained_ = keep; }

  /// Events whose key falls in [base, base + span).
  std::size_t count_in_key_range(RoutingKey base, std::uint32_t span) const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(), [&](const Event& e) {
          return e.key >= base && e.key < base + span;
        }));
  }

 private:
  struct Pending {
    sim::EventKey order;
    Event event;
  };

  std::vector<Event> events_;
  /// One per shard, appended to only by the thread running that shard.
  std::vector<std::vector<Pending>> buffers_;
  std::vector<Pending> merging_;
  std::size_t drain_pos_ = 0;
  std::size_t total_recorded_ = 0;
  std::size_t drained_total_ = 0;
  bool retain_drained_ = true;
};

}  // namespace spinn::neural
