// Tests of the packet-level congestion controllers (Reno, CUBIC, BBRv1/v2).
#include <gtest/gtest.h>

#include <cmath>

#include "packetsim/bbr1_cca.h"
#include "packetsim/bbr2_cca.h"
#include "packetsim/cubic_cca.h"
#include "packetsim/network.h"
#include "packetsim/reno_cca.h"

namespace bbrmodel::packetsim {
namespace {

AckEvent ack_event(double now, double rtt, int newly, double inflight,
                   double rate = 0.0) {
  AckEvent a;
  a.now = now;
  a.rtt_s = rtt;
  a.newly_acked = newly;
  a.inflight_pkts = inflight;
  a.delivery_rate_pps = rate;
  return a;
}

// ------------------------------------------------------------------ Reno --

TEST(RenoCca, SlowStartGrowsOnePerAck) {
  RenoCca reno(10.0);
  reno.on_ack(ack_event(0.1, 0.03, 5, 10.0));
  EXPECT_DOUBLE_EQ(reno.cwnd_pkts(), 15.0);
  EXPECT_TRUE(reno.in_slow_start());
}

TEST(RenoCca, LossHalvesAndEntersAvoidance) {
  RenoCca reno(40.0);
  reno.on_ack(ack_event(0.1, 0.03, 1, 40.0));
  LossEvent loss;
  loss.now = 0.2;
  reno.on_loss(loss);
  EXPECT_DOUBLE_EQ(reno.cwnd_pkts(), 20.5);  // (40+1)/2
  EXPECT_FALSE(reno.in_slow_start());
  // Congestion avoidance: +1/cwnd per ACK.
  const double before = reno.cwnd_pkts();
  reno.on_ack(ack_event(0.3, 0.03, 1, 20.0));
  EXPECT_NEAR(reno.cwnd_pkts(), before + 1.0 / before, 1e-12);
}

TEST(RenoCca, OnlyOneReductionPerRoundTrip) {
  RenoCca reno(40.0);
  reno.on_ack(ack_event(0.1, 0.03, 1, 40.0));
  LossEvent loss;
  loss.now = 0.2;
  reno.on_loss(loss);
  const double after_first = reno.cwnd_pkts();
  loss.now = 0.21;  // within the same RTT
  reno.on_loss(loss);
  EXPECT_DOUBLE_EQ(reno.cwnd_pkts(), after_first);
  loss.now = 0.2 + 0.05;  // next round trip
  reno.on_loss(loss);
  EXPECT_LT(reno.cwnd_pkts(), after_first);
}

TEST(RenoCca, RtoCollapsesToOneSegment) {
  RenoCca reno(40.0);
  reno.on_rto(1.0);
  EXPECT_DOUBLE_EQ(reno.cwnd_pkts(), 1.0);
  EXPECT_TRUE(reno.in_slow_start());
  EXPECT_DOUBLE_EQ(reno.ssthresh_pkts(), 20.0);
}

TEST(RenoCca, IsUnpaced) {
  EXPECT_DOUBLE_EQ(RenoCca(10.0).pacing_pps(), 0.0);
}

// ----------------------------------------------------------------- CUBIC --

TEST(CubicCca, LossAppliesBetaDecrease) {
  CubicCca cubic(50.0);
  cubic.on_ack(ack_event(0.1, 0.03, 1, 50.0));
  LossEvent loss;
  loss.now = 0.2;
  cubic.on_loss(loss);
  EXPECT_NEAR(cubic.cwnd_pkts(), 51.0 * 0.7, 0.1);
  EXPECT_NEAR(cubic.w_max_pkts(), 51.0, 0.1);
  EXPECT_FALSE(cubic.in_slow_start());
}

TEST(CubicCca, RecoversTowardWmax) {
  CubicCca cubic(100.0);
  cubic.on_ack(ack_event(0.0, 0.03, 1, 100.0));
  LossEvent loss;
  loss.now = 0.1;
  cubic.on_loss(loss);
  const double w_max = cubic.w_max_pkts();
  // Drive ACKs for ~K seconds: the window should approach w_max again.
  const double k = std::cbrt(w_max * 0.3 / 0.4);
  double t = 0.1;
  for (int i = 0; i < 2000 && t < 0.1 + k; ++i) {
    t += 0.002;
    cubic.on_ack(ack_event(t, 0.03, 1, cubic.cwnd_pkts()));
  }
  EXPECT_GT(cubic.cwnd_pkts(), 0.9 * w_max);
}

TEST(CubicCca, FastConvergenceLowersWmaxOnBackToBackLoss) {
  CubicCca cubic(100.0);
  cubic.on_ack(ack_event(0.0, 0.03, 1, 100.0));
  LossEvent loss;
  loss.now = 0.1;
  cubic.on_loss(loss);
  const double w_max_first = cubic.w_max_pkts();
  loss.now = 0.5;  // well past recovery, window still below w_max
  cubic.on_loss(loss);
  EXPECT_LT(cubic.w_max_pkts(), w_max_first);
}

TEST(CubicCca, GrowthIsSlowNearPlateau) {
  CubicCca cubic(100.0);
  cubic.on_ack(ack_event(0.0, 0.03, 1, 100.0));
  LossEvent loss;
  loss.now = 0.1;
  cubic.on_loss(loss);
  const double k = std::cbrt(cubic.w_max_pkts() * 0.3 / 0.4);
  // Near t = K the cubic is flat: growth per ACK tiny.
  double t = 0.1 + k;
  const double w0 = [&] {
    cubic.on_ack(ack_event(t, 0.03, 1, cubic.cwnd_pkts()));
    return cubic.cwnd_pkts();
  }();
  cubic.on_ack(ack_event(t + 0.002, 0.03, 1, cubic.cwnd_pkts()));
  EXPECT_LT(cubic.cwnd_pkts() - w0, 0.5);
}

// ----------------------------------------------------------------- BBRv1 --

TEST(Bbr1Cca, StartupUsesHighGain) {
  Bbr1Cca bbr(1);
  bbr.on_start(0.0);
  EXPECT_EQ(bbr.mode(), Bbr1Cca::Mode::kStartup);
  bbr.on_ack(ack_event(0.05, 0.03, 1, 5.0, 500.0));
  EXPECT_NEAR(bbr.pacing_pps(), Bbr1Cca::kHighGain * 500.0, 1e-9);
  EXPECT_NEAR(bbr.btlbw_pps(), 500.0, 1e-9);
  EXPECT_NEAR(bbr.rtprop_s(), 0.03, 1e-12);
}

TEST(Bbr1Cca, HandshakeRttGivesInitialPacing) {
  Bbr1Cca bbr(1);
  bbr.on_start(0.0);
  bbr.on_ack(ack_event(0.03, 0.03, 0, 0.0, 0.0));  // SYN-style sample
  EXPECT_NEAR(bbr.pacing_pps(), Bbr1Cca::kHighGain * 10.0 / 0.03, 1e-6);
}

TEST(Bbr1Cca, LossIsIgnored) {
  Bbr1Cca bbr(1);
  bbr.on_start(0.0);
  bbr.on_ack(ack_event(0.05, 0.03, 1, 5.0, 800.0));
  const double cwnd = bbr.cwnd_pkts();
  LossEvent loss;
  loss.now = 0.06;
  for (int i = 0; i < 50; ++i) bbr.on_loss(loss);
  EXPECT_DOUBLE_EQ(bbr.cwnd_pkts(), cwnd);
}

TEST(Bbr1Cca, ReachesProbeBwOnRealPath) {
  PacketNet net(5);
  net.add_link(8333.0, 0.010, 300.0, AqmKind::kDropTail);
  net.add_flow(0.0056, {0}, std::make_unique<Bbr1Cca>(5));
  net.run(3.0);
  const auto* bbr = dynamic_cast<const Bbr1Cca*>(&net.flow(0).cca());
  ASSERT_NE(bbr, nullptr);
  EXPECT_EQ(bbr->mode(), Bbr1Cca::Mode::kProbeBw);
  EXPECT_NEAR(bbr->btlbw_pps(), 8333.0, 0.15 * 8333.0);
  EXPECT_NEAR(bbr->rtprop_s(), 0.0312, 0.002);
  const auto m = net.aggregate_metrics();
  EXPECT_GT(m.utilization_pct, 90.0);
}

TEST(Bbr1Cca, EntersProbeRttAfterTenSeconds) {
  PacketNet net(5, 0.02);
  net.add_link(8333.0, 0.010, 300.0, AqmKind::kDropTail);
  net.add_flow(0.0056, {0}, std::make_unique<Bbr1Cca>(5));
  net.run(12.0);
  // The ProbeRTT dip is visible in the trace as a near-zero rate sample
  // after t = 10 s.
  bool saw_dip = false;
  for (const auto& row : net.trace().rows) {
    if (row.t > 10.0 && row.flow_rate_pps[0] < 0.05 * 8333.0) saw_dip = true;
  }
  EXPECT_TRUE(saw_dip);
}

TEST(Bbr1Cca, CyclesThroughProbePhases) {
  PacketNet net(5, 0.005);
  net.add_link(8333.0, 0.010, 300.0, AqmKind::kDropTail);
  net.add_flow(0.0056, {0}, std::make_unique<Bbr1Cca>(5));
  net.run(3.0);
  // Rate samples should show probing above and draining below the mean.
  double max_rate = 0.0, min_rate = 1e18;
  for (const auto& row : net.trace().rows) {
    if (row.t < 1.0) continue;  // skip startup
    max_rate = std::max(max_rate, row.flow_rate_pps[0]);
    min_rate = std::min(min_rate, row.flow_rate_pps[0]);
  }
  EXPECT_GT(max_rate, 1.1 * 8333.0);
  EXPECT_LT(min_rate, 0.95 * 8333.0);
}

// ----------------------------------------------------------------- BBRv2 --

TEST(Bbr2Cca, StartsUnsetInflightHi) {
  Bbr2Cca bbr(1);
  EXPECT_FALSE(bbr.inflight_hi_set());
}

TEST(Bbr2Cca, DeepBufferLeavesInflightHiUnset) {
  // Insight 5 mechanism: without loss, STARTUP exits via plateau and the
  // long-term bound stays unset → the generic 2·BDP window governs.
  PacketNet net(5);
  net.add_link(8333.0, 0.010, 7.0 * 260.0, AqmKind::kDropTail);
  net.add_flow(0.0056, {0}, std::make_unique<Bbr2Cca>(5));
  net.run(4.0);
  const auto* bbr = dynamic_cast<const Bbr2Cca*>(&net.flow(0).cca());
  ASSERT_NE(bbr, nullptr);
  EXPECT_FALSE(bbr->inflight_hi_set());
}

TEST(Bbr2Cca, ShallowBufferSetsAndBoundsInflightHi) {
  PacketNet net(5);
  net.add_link(8333.0, 0.010, 40.0, AqmKind::kDropTail);
  net.add_flow(0.0056, {0}, std::make_unique<Bbr2Cca>(5));
  net.run(5.0);
  const auto* bbr = dynamic_cast<const Bbr2Cca*>(&net.flow(0).cca());
  ASSERT_NE(bbr, nullptr);
  EXPECT_TRUE(bbr->inflight_hi_set());
  // The bound is anchored to observed inflight; startup overshoot (lost
  // packets not yet marked) can inflate the first estimate, but it stays
  // within a small multiple of what the path can physically hold.
  EXPECT_LT(bbr->inflight_hi_pkts(), 1000.0);
}

TEST(Bbr2Cca, AchievesHighUtilizationAlone) {
  PacketNet net(5);
  net.add_link(8333.0, 0.010, 260.0, AqmKind::kDropTail);
  net.add_flow(0.0056, {0}, std::make_unique<Bbr2Cca>(5));
  net.run(5.0);
  const auto m = net.aggregate_metrics();
  EXPECT_GT(m.utilization_pct, 90.0);
  EXPECT_LT(m.loss_pct, 3.0);
}

TEST(Bbr2Cca, LowerLossThanBbrv1UnderContention) {
  auto run_mix = [](bool use_v2) {
    PacketNet net(11);
    net.add_link(8333.0, 0.010, 260.0, AqmKind::kDropTail);
    for (int i = 0; i < 4; ++i) {
      if (use_v2) {
        net.add_flow(0.005 + 0.001 * i, {0}, std::make_unique<Bbr2Cca>(100 + i));
      } else {
        net.add_flow(0.005 + 0.001 * i, {0}, std::make_unique<Bbr1Cca>(100 + i));
      }
    }
    net.run(5.0);
    return net.aggregate_metrics().loss_pct;
  };
  const double v1_loss = run_mix(false);
  const double v2_loss = run_mix(true);
  EXPECT_LT(v2_loss, v1_loss);
  EXPECT_LT(v2_loss, 2.0);  // Insight 1: loss-sensitive CCAs ≈ 1 %
}

TEST(Bbr2Cca, CruisesMostOfTheTime) {
  PacketNet net(5);
  net.add_link(8333.0, 0.010, 260.0, AqmKind::kDropTail);
  net.add_flow(0.0056, {0}, std::make_unique<Bbr2Cca>(5));
  net.run(5.0);
  const auto* bbr = dynamic_cast<const Bbr2Cca*>(&net.flow(0).cca());
  ASSERT_NE(bbr, nullptr);
  // After 5 s a lone BBRv2 flow sits in ProbeBW (cruise/down/refill/up).
  EXPECT_TRUE(bbr->mode() == Bbr2Cca::Mode::kProbeBwCruise ||
              bbr->mode() == Bbr2Cca::Mode::kProbeBwDown ||
              bbr->mode() == Bbr2Cca::Mode::kProbeBwRefill ||
              bbr->mode() == Bbr2Cca::Mode::kProbeBwUp);
  EXPECT_NEAR(bbr->bw_pps(), 8333.0, 0.15 * 8333.0);
}

TEST(Bbr2Cca, InflightLoArmsOnCruiseLoss) {
  Bbr2Cca bbr(1);
  bbr.on_start(0.0);
  // Walk the CCA into cruise via a synthetic path: give it bandwidth and an
  // empty pipe.
  bbr.on_ack(ack_event(0.03, 0.03, 0, 0.0, 0.0));
  for (int i = 0; i < 200; ++i) {
    bbr.on_ack(ack_event(0.03 + 0.001 * i, 0.03, 1, 10.0, 8000.0));
  }
  if (bbr.mode() == Bbr2Cca::Mode::kProbeBwCruise) {
    LossEvent loss;
    loss.now = 1.0;
    bbr.on_loss(loss);
    EXPECT_LT(bbr.inflight_lo_pkts(),
              std::numeric_limits<double>::infinity());
  }
}

TEST(Bbr2Cca, ProbeRttShrinksWindowToHalfBdp) {
  PacketNet net(5, 0.02);
  net.add_link(8333.0, 0.010, 260.0, AqmKind::kDropTail);
  net.add_flow(0.0056, {0}, std::make_unique<Bbr2Cca>(5));
  net.run(12.0);
  bool saw_probe_rtt_dip = false;
  for (const auto& row : net.trace().rows) {
    if (row.t > 10.0 && row.flow_rate_pps[0] < 0.65 * 8333.0) {
      saw_probe_rtt_dip = true;
    }
  }
  EXPECT_TRUE(saw_probe_rtt_dip);
}

}  // namespace
}  // namespace bbrmodel::packetsim
