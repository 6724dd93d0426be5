#include "packetsim/link.h"

#include <algorithm>
#include <limits>

#include "common/require.h"

namespace bbrmodel::packetsim {

BottleneckLink::BottleneckLink(EventQueue& events, double capacity_pps,
                               double prop_delay_s, std::unique_ptr<Aqm> aqm,
                               Rng& rng, Deliver deliver, double buffer_pkts)
    : events_(events),
      capacity_pps_(capacity_pps),
      prop_delay_s_(prop_delay_s),
      aqm_(std::move(aqm)),
      rng_(rng),
      deliver_(std::move(deliver)),
      buffer_pkts_(buffer_pkts > 0.0
                       ? buffer_pkts
                       : std::numeric_limits<double>::infinity()) {
  BBRM_REQUIRE_MSG(capacity_pps > 0.0, "capacity must be positive");
  BBRM_REQUIRE_MSG(prop_delay_s >= 0.0, "delay must be non-negative");
  BBRM_REQUIRE_MSG(aqm_ != nullptr, "an AQM is required");
  BBRM_REQUIRE_MSG(deliver_ != nullptr, "a delivery sink is required");
}

void BottleneckLink::account() {
  const double now = events_.now();
  stats_.queue_time_pkts_s +=
      static_cast<double>(queue_.size()) * (now - last_account_time_);
  last_account_time_ = now;
}

void BottleneckLink::flush_accounting() { account(); }

void BottleneckLink::offer(const Packet& packet) {
  account();
  ++stats_.arrived;
  Packet admitted = packet;
  if (aqm_->should_drop(events_.now(), queue_pkts(), rng_)) {
    // ECN: a probabilistic "drop" becomes a CE mark while the buffer
    // physically has room (RFC 3168); a genuinely full buffer still drops.
    const bool has_room = queue_pkts() + 1.0 <= buffer_pkts_;
    if (aqm_->ecn_capable() && has_room) {
      admitted.ecn_ce = true;
      ++stats_.marked;
    } else {
      ++stats_.dropped;
      return;
    }
  }
  queue_.push_back(admitted);
  stats_.max_queue_pkts = std::max(stats_.max_queue_pkts, queue_pkts());
  if (!busy_) start_service();
}

void BottleneckLink::start_service() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  account();
  const Packet pkt = queue_.front();
  queue_.pop_front();
  const double service = 1.0 / capacity_pps_;
  stats_.busy_time_s += service;
  events_.schedule_in(service, [this, pkt] {
    ++stats_.served;
    // Hand off to propagation; service next packet immediately.
    events_.schedule_in(prop_delay_s_, [this, pkt] { deliver_(pkt); });
    start_service();
  });
}

}  // namespace bbrmodel::packetsim
