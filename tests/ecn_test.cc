// ECN extension tests (DESIGN.md §8): CE marking at the AQM, the echo path,
// and the CCA responses (paper §3.1 notes BBRv2's ECN sensitivity; the
// paper's analysis keeps loss only — this extension restores the signal).
#include <gtest/gtest.h>

#include <memory>

#include "common/units.h"
#include "packetsim/bbr2_cca.h"
#include "packetsim/cubic_cca.h"
#include "packetsim/network.h"
#include "packetsim/reno_cca.h"

namespace bbrmodel::packetsim {
namespace {

TEST(EcnAqm, FloydRedMarksOnlyWhenEnabled) {
  FloydRedAqm plain(100.0, 20.0, 60.0);
  FloydRedAqm ecn(100.0, 20.0, 60.0, 0.1, 0.002, true);
  EXPECT_FALSE(plain.ecn_capable());
  EXPECT_TRUE(ecn.ecn_capable());
  DropTailAqm tail(100.0);
  EXPECT_FALSE(tail.ecn_capable());
}

TEST(EcnNetwork, RedEcnMarksInsteadOfDropping) {
  PacketNet net(7);
  net.add_link(mbps_to_pps(100.0), 0.010, 260.0, AqmKind::kRedEcn);
  for (int i = 0; i < 4; ++i) {
    net.add_flow(0.005 + 0.001 * i, {0}, std::make_unique<RenoCca>());
  }
  net.run(5.0);
  const auto& ls = net.link(0).stats();
  EXPECT_GT(ls.marked, 10);         // congestion signalled via CE …
  EXPECT_LT(ls.dropped, ls.marked); // … more often than via drops
  // Windows still regulated: queue does not stay pinned at the buffer.
  const auto m = net.aggregate_metrics();
  EXPECT_LT(m.occupancy_pct, 60.0);
  EXPECT_GT(m.utilization_pct, 70.0);
}

TEST(EcnNetwork, RenoRespondsWithoutRetransmits) {
  PacketNet net(7);
  net.add_link(mbps_to_pps(100.0), 0.010, 260.0, AqmKind::kRedEcn);
  net.add_flow(0.0056, {0}, std::make_unique<RenoCca>());
  net.run(5.0);
  const auto s = net.flow(0).stats();
  // CE marks throttle the window but nothing is lost or resent.
  EXPECT_EQ(s.retransmits, 0);
  EXPECT_EQ(s.lost_marked, 0);
  EXPECT_GT(net.link(0).stats().marked, 0);
}

TEST(EcnNetwork, CubicRespondsToMarks) {
  PacketNet net(7);
  net.add_link(mbps_to_pps(100.0), 0.010, 260.0, AqmKind::kRedEcn);
  net.add_flow(0.0056, {0}, std::make_unique<CubicCca>());
  net.run(5.0);
  EXPECT_GT(net.link(0).stats().marked, 0);
  EXPECT_EQ(net.flow(0).stats().retransmits, 0);
  // The marking point (min_th = 26 pkts) caps the standing queue well
  // below what drop-tail CUBIC would build.
  EXPECT_LT(net.aggregate_metrics().occupancy_pct, 50.0);
}

TEST(EcnNetwork, Bbrv2TreatsMarksAsCongestion) {
  auto run_with = [](AqmKind aqm) {
    PacketNet net(7);
    net.add_link(mbps_to_pps(100.0), 0.010, 260.0, aqm);
    for (int i = 0; i < 4; ++i) {
      net.add_flow(0.005 + 0.001 * i, {0}, std::make_unique<Bbr2Cca>(50 + i));
    }
    net.run(5.0);
    return net.aggregate_metrics();
  };
  const auto ecn = run_with(AqmKind::kRedEcn);
  const auto droptail = run_with(AqmKind::kDropTail);
  // With CE marks BBRv2 keeps the queue near the marking threshold —
  // far below its drop-tail occupancy — at healthy utilization.
  EXPECT_LT(ecn.occupancy_pct, droptail.occupancy_pct);
  EXPECT_GT(ecn.utilization_pct, 75.0);
  EXPECT_LT(ecn.loss_pct, 1.5);  // residual startup drops only
}

TEST(EcnNetwork, MarkingStopsAtFullBuffer) {
  // A tiny buffer forces genuine drops even under an ECN AQM.
  PacketNet net(7);
  net.add_link(mbps_to_pps(100.0), 0.010, 12.0, AqmKind::kRedEcn);
  net.add_flow(0.0056, {0}, std::make_unique<RenoCca>());
  net.run(3.0);
  EXPECT_GT(net.link(0).stats().dropped, 0);
}

}  // namespace
}  // namespace bbrmodel::packetsim
