// The shared bottleneck: AQM buffer + serializing server + propagation.
#pragma once

#include <deque>
#include <functional>
#include <memory>

#include "common/rng.h"
#include "packetsim/aqm.h"
#include "packetsim/event_queue.h"
#include "packetsim/packet.h"

namespace bbrmodel::packetsim {

/// Cumulative bottleneck statistics.
struct LinkStats {
  std::int64_t arrived = 0;   ///< packets offered
  std::int64_t dropped = 0;   ///< packets dropped by the AQM
  std::int64_t marked = 0;    ///< packets CE-marked instead of dropped (ECN)
  std::int64_t served = 0;    ///< packets fully serialized
  double busy_time_s = 0.0;   ///< time the server was transmitting
  double queue_time_pkts_s = 0.0;  ///< ∫ q dt (time-average queue)
  double max_queue_pkts = 0.0;
};

/// A single FIFO bottleneck link: packets are admitted by the AQM, queued,
/// serialized at `capacity_pps`, and handed to `deliver` after the
/// propagation delay.
class BottleneckLink {
 public:
  using Deliver = std::function<void(const Packet&)>;

  /// @param deliver invoked at the instant a packet arrives at the far end.
  /// @param buffer_pkts physical buffer bound used for the ECN mark-vs-drop
  ///        decision; non-positive means "derive nothing" (marks whenever
  ///        the AQM is ECN-capable).
  BottleneckLink(EventQueue& events, double capacity_pps, double prop_delay_s,
                 std::unique_ptr<Aqm> aqm, Rng& rng, Deliver deliver,
                 double buffer_pkts = 0.0);

  /// Offer a packet to the queue (called at its arrival time).
  void offer(const Packet& packet);

  /// Instantaneous backlog (packets waiting, excluding the one in service).
  double queue_pkts() const { return static_cast<double>(queue_.size()); }

  const LinkStats& stats() const { return stats_; }
  double capacity_pps() const { return capacity_pps_; }
  double prop_delay_s() const { return prop_delay_s_; }
  /// The physical buffer bound; infinite when built without one.
  double buffer_pkts() const { return buffer_pkts_; }

  /// Bring the queue-time integral up to date (call before reading stats).
  void flush_accounting();

 private:
  void start_service();
  void account();

  EventQueue& events_;
  double capacity_pps_;
  double prop_delay_s_;
  std::unique_ptr<Aqm> aqm_;
  Rng& rng_;
  Deliver deliver_;

  std::deque<Packet> queue_;
  bool busy_ = false;
  LinkStats stats_;
  double last_account_time_ = 0.0;
  double buffer_pkts_ = 0.0;
};

}  // namespace bbrmodel::packetsim
