// Discrete-event simulation core.
//
// A time-ordered queue of closures with FIFO tie-breaking for equal
// timestamps (deterministic replay — the whole packet simulator is seeded
// and reproducible, see DESIGN.md §4).
//
// Events are arena-allocated: each scheduled closure lives in a pooled
// fixed-size node (inline storage, no std::function), nodes come from
// chunked slabs threaded onto a free list, and executing an event returns
// its node to the list. After the pool warms up, scheduling and running
// events performs zero malloc/free — the event loop is the packet
// simulator's hottest path, and per-event allocation dominated its profile.
// Closures larger than the inline storage (none today) are boxed on the
// heap transparently; move-only captures are fine.
//
// A deadline that is pushed back again and again (a retransmission timer,
// re-armed on every send and ACK) is a Timer, not a chain of events: it
// keeps at most one live queue entry, so superseded deadlines neither
// grow the heap nor pop as dead events.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/require.h"

namespace bbrmodel::packetsim {

/// Event-driven simulation clock and scheduler.
class EventQueue {
 public:
  EventQueue() = default;
  ~EventQueue();

  /// Current simulation time (seconds).
  double now() const { return now_; }

  /// Schedule `action` at absolute time `t` (must not be in the past).
  template <typename F>
  void schedule_at(double t, F&& action) {
    BBRM_REQUIRE_MSG(t >= now_ - 1e-12, "cannot schedule into the past");
    Node* node = make_node(std::forward<F>(action));
    queue_.push(Entry{std::max(t, now_), next_seq_++, node, nullptr});
  }

  /// Schedule `action` after `delay` seconds.
  template <typename F>
  void schedule_in(double delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Run events until the queue is empty or the clock passes `t_end`.
  /// Events scheduled exactly at t_end are executed. Throws
  /// DeadlineExceeded, between two events, once the calling thread's
  /// deadline has passed (common/deadline.h).
  void run_until(double t_end);

  /// Number of queue entries executed so far (a Timer's re-queued or
  /// superseded entries count too).
  std::uint64_t executed() const { return executed_; }

  bool empty() const { return queue_.empty(); }

  /// A re-armable one-shot timer. `on_fire` runs once, at the deadline of
  /// the last arm(), in the (time, insertion order) slot an event scheduled
  /// by that arm() would have had: arm() reserves the tie-break slot
  /// schedule_at would hand out at that moment, so every other event keeps
  /// its slot too. At most one queue entry per timer is live. An entry that
  /// pops before a later-armed deadline re-queues itself there; only an
  /// arm to an earlier deadline queues a new entry, and the one it
  /// supersedes is dropped when it pops. A timer must outlive every
  /// run_until that can pop its entries; the queue's destructor never
  /// touches it.
  class Timer {
   public:
    Timer(EventQueue& events, std::function<void()> on_fire)
        : events_(events), on_fire_(std::move(on_fire)) {}
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// Fire at absolute time `t` (must not be in the past); this replaces
    /// the deadline of every previous arm().
    void arm(double t);

   private:
    friend class EventQueue;
    /// Handle one of this timer's entries popping from the queue.
    void pop(std::uint64_t seq);

    EventQueue& events_;
    std::function<void()> on_fire_;
    bool armed_ = false;
    double deadline_ = 0.0;          ///< the last arm's time and slot
    std::uint64_t seq_ = 0;
    double queued_time_ = 0.0;       ///< the live entry's time and slot
    std::uint64_t queued_seq_ = 0;
  };

 private:
  /// Inline closure capacity. Sized for the simulator's largest capture
  /// (this + a Packet echo and change); bigger closures fall back to a
  /// heap box, so this is a performance knob, not a correctness limit.
  static constexpr std::size_t kInlineEventBytes = 96;
  static constexpr std::size_t kChunkNodes = 128;

  struct Node {
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;  ///< null for trivial captures
    Node* next_free = nullptr;
    alignas(alignof(std::max_align_t)) unsigned char storage[kInlineEventBytes];
  };

  struct Entry {
    double time;
    std::uint64_t seq;  // insertion order for stable ties
    Node* node;         // the event's closure, or null for a timer entry
    Timer* timer;       // the timer a null-node entry belongs to
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  Node* acquire();
  void release(Node* node);

  template <typename F>
  Node* make_node(F&& action) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineEventBytes) {
      Node* node = acquire();
      ::new (static_cast<void*>(node->storage)) Fn(std::forward<F>(action));
      node->invoke = [](void* p) { (*static_cast<Fn*>(p))(); };
      if constexpr (std::is_trivially_destructible_v<Fn>) {
        node->destroy = nullptr;
      } else {
        node->destroy = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
      }
      return node;
    } else {
      // Oversized capture: box it; the boxing closure itself is tiny.
      return make_node(
          [boxed = std::unique_ptr<Fn>(new Fn(std::forward<F>(action)))] {
            (*boxed)();
          });
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* free_ = nullptr;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace bbrmodel::packetsim
