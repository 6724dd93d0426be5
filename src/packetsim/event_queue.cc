#include "packetsim/event_queue.h"

namespace bbrmodel::packetsim {

EventQueue::~EventQueue() {
  // Destroy captures of events that never ran (simulation stopped early).
  while (!queue_.empty()) {
    Node* node = queue_.top().node;
    queue_.pop();
    if (node != nullptr && node->destroy != nullptr) {
      node->destroy(node->storage);
    }
  }
  // chunks_ frees the slabs themselves.
}

EventQueue::Node* EventQueue::acquire() {
  if (free_ == nullptr) {
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    Node* slab = chunks_.back().get();
    for (std::size_t i = 0; i < kChunkNodes; ++i) {
      slab[i].next_free = free_;
      free_ = &slab[i];
    }
  }
  Node* node = free_;
  free_ = node->next_free;
  return node;
}

void EventQueue::release(Node* node) {
  if (node->destroy != nullptr) node->destroy(node->storage);
  node->next_free = free_;
  free_ = node;
}

void EventQueue::run_until(double t_end) {
  while (!queue_.empty() && queue_.top().time <= t_end) {
    const Entry e = queue_.top();
    queue_.pop();
    now_ = e.time;
    ++executed_;
    if (e.node == nullptr) {
      e.timer->pop(e.seq);
      continue;
    }
    e.node->invoke(e.node->storage);
    // The closure may have scheduled further events (pulling nodes off the
    // free list), but it cannot release its own node — recycle it now.
    release(e.node);
  }
  now_ = std::max(now_, t_end);
}

void EventQueue::Timer::arm(double t) {
  BBRM_REQUIRE_MSG(t >= events_.now_ - 1e-12, "cannot arm into the past");
  t = std::max(t, events_.now_);
  const std::uint64_t seq = events_.next_seq_++;
  if (!armed_ || t < queued_time_) {
    events_.queue_.push(Entry{t, seq, nullptr, this});
    queued_time_ = t;
    queued_seq_ = seq;
  }
  armed_ = true;
  deadline_ = t;
  seq_ = seq;
}

void EventQueue::Timer::pop(std::uint64_t seq) {
  if (!armed_ || seq != queued_seq_) return;  // superseded by an earlier arm
  if (seq != seq_) {
    // Re-armed to a later deadline since this entry was queued.
    events_.queue_.push(Entry{deadline_, seq_, nullptr, this});
    queued_time_ = deadline_;
    queued_seq_ = seq_;
    return;
  }
  armed_ = false;
  on_fire_();
}

}  // namespace bbrmodel::packetsim
