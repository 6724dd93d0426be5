// The packet record exchanged between sender, bottleneck, and receiver.
#pragma once

#include <cstdint>

namespace bbrmodel::packetsim {

/// One data packet (fixed size: one MSS). ACKs are modelled as zero-cost
/// control messages (the return path is uncongested in the paper's dumbbell).
struct Packet {
  int flow = -1;              ///< sending flow index
  std::int64_t seq = -1;      ///< packet sequence number (packets, not bytes)
  bool retransmit = false;    ///< this transmission is a retransmission
  bool handshake = false;     ///< connection-setup probe (SYN analogue)
  bool ecn_ce = false;        ///< congestion-experienced mark (RFC 3168)
  int hop = 0;                ///< its flow's path index of the current link
  double sent_time = 0.0;     ///< departure time from the sender

  // Delivery-rate sampling snapshots (Linux-style rate samples): the
  // sender's delivered counter and its timestamp when this packet left, plus
  // the start of the send-side sampling window (tcp_rate.c semantics — the
  // sample interval is max(send span, ack span) to avoid overestimating the
  // rate under ACK compression or send bursts).
  double delivered_at_send = 0.0;
  double delivered_time_at_send = 0.0;
  double first_tx_at_send = 0.0;
};

}  // namespace bbrmodel::packetsim
