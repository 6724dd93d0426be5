// One TCP-like flow: sender, receiver, and the feedback loop between them.
//
// The transport implements the mechanisms BBR and loss-based CCAs rely on:
//  * cumulative + selective acknowledgment (every delivered packet echoes
//    its own sequence number — an idealized per-packet SACK),
//  * RTT sampling with Karn's rule (no samples from retransmissions),
//  * Linux-style delivery-rate samples (delivered-counter snapshots carried
//    in each packet, interval measured between snapshots),
//  * time-and-sequence loss marking (a packet is lost once a packet sent
//    later has been selectively acknowledged and the sequence gap exceeds
//    the reordering window — RACK-style),
//  * retransmission timeouts with exponential backoff,
//  * optional pacing (BBR) or pure ACK clocking (Reno/CUBIC).
//
// The return path is a fixed delay (the dumbbell's ACK direction is never
// congested, §4.1.3).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/stats.h"
#include "packetsim/cca_api.h"
#include "packetsim/event_queue.h"
#include "packetsim/packet.h"
#include "packetsim/pool.h"

namespace bbrmodel::packetsim {

/// Cumulative flow statistics (sender and receiver side).
struct FlowStats {
  std::int64_t data_sent = 0;        ///< data transmissions incl. retransmits
  std::int64_t retransmits = 0;
  std::int64_t delivered = 0;        ///< packets known delivered (sender view)
  std::int64_t lost_marked = 0;      ///< scoreboard loss marks
  std::int64_t rtos = 0;
  std::int64_t received = 0;         ///< packets seen by the receiver
  double srtt_s = 0.0;
  double min_rtt_s = 0.0;            ///< smallest RTT sample seen
  double jitter_ms = 0.0;            ///< mean |Δ one-way delay|, receiver side
};

/// A single sender→receiver flow through one or more bottleneck links.
class Flow {
 public:
  /// Where the sender injects packets (the first link of its path).
  using Egress = std::function<void(const Packet&)>;

  /// Packets are handed to `egress` after the access delay.
  /// @param access_delay_s    one-way delay sender↔switch (heterogeneous
  ///                          RTTs).
  /// @param path_prop_delay_s one-way propagation of the whole forward
  ///                          path (the ACK return delay is access + path
  ///                          propagation).
  /// @param start_time_s      when the first packet leaves.
  Flow(EventQueue& events, int id, double access_delay_s, Egress egress,
       double path_prop_delay_s, std::unique_ptr<PacketCca> cca,
       double start_time_s = 0.0);

  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  /// Register the start event; must be called once before running.
  void start();

  /// Entry point for packets reaching the receiver (wired by the network).
  void deliver_to_receiver(const Packet& packet);

  int id() const { return id_; }
  const PacketCca& cca() const { return *cca_; }
  FlowStats stats() const;

  /// Outstanding (sent, not yet acked or marked lost) packets.
  double inflight_pkts() const {
    return static_cast<double>(outstanding_.size());
  }

  /// Reordering window of the loss detector, in packets.
  static constexpr std::int64_t kReorderWindowPkts = 3;

 private:
  struct TxRecord {
    double sent_time = 0.0;
    bool retransmit = false;
  };

  // Per-packet bookkeeping lives in node-based containers; their tree
  // nodes come from a per-flow pool so the steady-state send/ack path
  // never touches malloc (the pool must be declared before them).
  using TxMap =
      std::map<std::int64_t, TxRecord, std::less<std::int64_t>,
               PoolAllocator<std::pair<const std::int64_t, TxRecord>>>;
  using SeqSet = std::set<std::int64_t, std::less<std::int64_t>,
                          PoolAllocator<std::int64_t>>;

  void try_send();
  void send_one();
  void handle_ack(std::int64_t cum, Packet echo);
  void update_rtt(double sample_s);
  void arm_rto();
  void fire_rto();

  EventQueue& events_;
  NodePool pool_;  ///< backs outstanding_/retx_queue_/rcv_out_of_order_
  int id_;
  double access_delay_s_;
  Egress egress_;
  std::unique_ptr<PacketCca> cca_;
  double start_time_s_;
  double return_delay_s_;

  // Sender state.
  std::int64_t next_seq_ = 0;
  std::int64_t cum_acked_ = 0;          ///< receiver's next expected seq
  std::int64_t highest_sacked_ = -1;
  TxMap outstanding_{TxMap::allocator_type(&pool_)};
  SeqSet retx_queue_{SeqSet::allocator_type(&pool_)};  ///< ordered, dedup'd
  double delivered_ = 0.0;
  double delivered_time_ = 0.0;
  double first_tx_mstamp_ = 0.0;  ///< start of the send-side sample window
  double next_send_time_ = 0.0;
  bool send_scheduled_ = false;
  bool handshake_done_ = false;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  double min_rtt_ = 0.0;
  double rto_ = 1.0;
  int rto_backoff_ = 0;
  EventQueue::Timer rto_timer_{events_, [this] { fire_rto(); }};

  // Receiver state.
  std::int64_t rcv_next_ = 0;
  SeqSet rcv_out_of_order_{SeqSet::allocator_type(&pool_)};
  double last_delay_s_ = 0.0;
  bool has_last_delay_ = false;
  RunningStats jitter_abs_delta_s_;

  // Counters.
  std::int64_t data_sent_ = 0;
  std::int64_t retransmits_ = 0;
  std::int64_t lost_marked_ = 0;
  std::int64_t rtos_ = 0;
  std::int64_t received_ = 0;
};

}  // namespace bbrmodel::packetsim
