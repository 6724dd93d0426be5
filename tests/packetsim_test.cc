// Tests of the packet-level substrate: events, AQMs, link, filters, flows.
#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/require.h"
#include "common/rng.h"
#include "packetsim/aqm.h"
#include "packetsim/event_queue.h"
#include "packetsim/link.h"
#include "packetsim/network.h"
#include "packetsim/reno_cca.h"
#include "packetsim/windowed_filter.h"

namespace bbrmodel::packetsim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(0.3, [&] { order.push_back(3); });
  q.schedule_at(0.1, [&] { order.push_back(1); });
  q.schedule_at(0.2, [&] { order.push_back(2); });
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.executed(), 3u);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
}

TEST(EventQueue, TieBreaksFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(0.5, [&order, i] { order.push_back(i); });
  }
  q.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) q.schedule_in(0.1, chain);
  };
  q.schedule_at(0.0, chain);
  q.run_until(1.0);
  EXPECT_EQ(fired, 5);
}

TEST(EventQueue, StopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(2.0, [&] { ++fired; });
  q.run_until(1.0);
  EXPECT_EQ(fired, 0);
  q.run_until(3.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.schedule_at(1.0, [] {});
  q.run_until(1.0);
  EXPECT_THROW(q.schedule_at(0.5, [] {}), PreconditionError);
}

TEST(EventQueueTimer, ReArmedLaterFiresOnceAtTheLastDeadline) {
  EventQueue q;
  std::vector<double> fired;
  EventQueue::Timer timer(q, [&] { fired.push_back(q.now()); });
  timer.arm(0.2);
  timer.arm(0.3);
  q.schedule_at(0.25, [&] { timer.arm(0.6); });
  q.run_until(1.0);
  EXPECT_EQ(fired, (std::vector<double>{0.6}));
}

TEST(EventQueueTimer, ReArmingLaterKeepsOneLiveEntry) {
  EventQueue q;
  std::vector<double> fired;
  EventQueue::Timer timer(q, [&] { fired.push_back(q.now()); });
  for (int k = 1; k <= 1000; ++k) timer.arm(0.001 * k);
  q.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{0.001 * 1000}));
  EXPECT_LE(q.executed(), 2u) << "1000 re-arms must not queue 1000 entries";
}

TEST(EventQueueTimer, ReArmedEarlierFiresOnceAtTheEarlierTime) {
  EventQueue q;
  std::vector<double> fired;
  EventQueue::Timer timer(q, [&] { fired.push_back(q.now()); });
  timer.arm(0.8);
  timer.arm(0.3);
  q.run_until(1.0);
  EXPECT_EQ(fired, (std::vector<double>{0.3}));
}

TEST(EventQueueTimer, TiesRunInTheSlotOfTheLastArm) {
  // Whether the last arm moves the deadline later (a re-queue) or earlier
  // (a new entry), the callback runs after the events queued before that
  // arm and before the events queued after it, like a schedule_at there.
  for (const double first_deadline : {0.2, 0.5, 0.8}) {
    EventQueue q;
    std::vector<int> order;
    EventQueue::Timer timer(q, [&] { order.push_back(0); });
    timer.arm(first_deadline);
    q.schedule_at(0.5, [&] { order.push_back(-1); });
    timer.arm(0.5);
    q.schedule_at(0.5, [&] { order.push_back(1); });
    q.run_until(1.0);
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1}))
        << "first deadline " << first_deadline;
  }
}

TEST(EventQueueTimer, RejectsArmingIntoThePast) {
  EventQueue q;
  EventQueue::Timer timer(q, [] {});
  q.run_until(1.0);
  EXPECT_THROW(timer.arm(0.5), PreconditionError);
}

TEST(DropTail, DropsOnlyWhenFull) {
  DropTailAqm aqm(10.0);
  Rng rng(1);
  EXPECT_FALSE(aqm.should_drop(0.0, 0.0, rng));
  EXPECT_FALSE(aqm.should_drop(0.0, 9.0, rng));
  EXPECT_TRUE(aqm.should_drop(0.0, 10.0, rng));
}

TEST(DropTail, RejectsDegenerateBuffer) {
  EXPECT_THROW(DropTailAqm(0.5), PreconditionError);
}

TEST(FloydRed, NoDropsBelowMinThreshold) {
  FloydRedAqm aqm(100.0, 20.0, 60.0, 0.1, 1.0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(aqm.should_drop(0.0, 10.0, rng));
  }
}

TEST(FloydRed, RampsBetweenThresholds) {
  Rng rng(2);
  FloydRedAqm aqm(100.0, 20.0, 60.0, 0.1, 1.0);
  int drops = 0;
  for (int i = 0; i < 20000; ++i) {
    if (aqm.should_drop(0.0, 40.0, rng)) ++drops;  // midway: p ≈ max_p/2
  }
  EXPECT_NEAR(drops / 20000.0, 0.05, 0.01);
}

TEST(FloydRed, GentleModeAboveMaxThreshold) {
  Rng rng(3);
  FloydRedAqm aqm(200.0, 20.0, 60.0, 0.1, 1.0);
  int drops = 0;
  for (int i = 0; i < 5000; ++i) {
    if (aqm.should_drop(0.0, 90.0, rng)) ++drops;  // half-way into gentle band
  }
  EXPECT_NEAR(drops / 5000.0, 0.1 + 0.9 * 0.5, 0.05);
}

TEST(FloydRed, ValidatesThresholds) {
  EXPECT_THROW(FloydRedAqm(100.0, 60.0, 20.0), PreconditionError);
  EXPECT_THROW(FloydRedAqm(100.0, 20.0, 60.0, 0.0), PreconditionError);
}

TEST(Link, SinglePacketTiming) {
  EventQueue events;
  Rng rng(1);
  std::vector<double> arrivals;
  BottleneckLink link(events, 1000.0, 0.010,
                      std::make_unique<DropTailAqm>(100.0), rng,
                      [&](const Packet&) { arrivals.push_back(events.now()); });
  Packet p;
  p.flow = 0;
  p.seq = 0;
  events.schedule_at(0.0, [&] { link.offer(p); });
  events.run_until(1.0);
  ASSERT_EQ(arrivals.size(), 1u);
  // Service 1 ms + propagation 10 ms.
  EXPECT_NEAR(arrivals[0], 0.011, 1e-12);
}

TEST(Link, SerializesBackToBack) {
  EventQueue events;
  Rng rng(1);
  std::vector<double> arrivals;
  BottleneckLink link(events, 1000.0, 0.0,
                      std::make_unique<DropTailAqm>(100.0), rng,
                      [&](const Packet&) { arrivals.push_back(events.now()); });
  events.schedule_at(0.0, [&] {
    for (int i = 0; i < 3; ++i) {
      Packet p;
      p.flow = 0;
      p.seq = i;
      link.offer(p);
    }
  });
  events.run_until(1.0);
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[1] - arrivals[0], 0.001, 1e-12);
  EXPECT_NEAR(arrivals[2] - arrivals[1], 0.001, 1e-12);
  EXPECT_EQ(link.stats().served, 3);
  EXPECT_NEAR(link.stats().busy_time_s, 0.003, 1e-12);
}

TEST(Link, DropsWhenBufferFull) {
  EventQueue events;
  Rng rng(1);
  int delivered = 0;
  BottleneckLink link(events, 1000.0, 0.0,
                      std::make_unique<DropTailAqm>(2.0), rng,
                      [&](const Packet&) { ++delivered; });
  events.schedule_at(0.0, [&] {
    for (int i = 0; i < 10; ++i) {
      Packet p;
      p.flow = 0;
      p.seq = i;
      link.offer(p);
    }
  });
  events.run_until(1.0);
  // One in service + 2 buffered survive the burst.
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().dropped, 7);
  EXPECT_EQ(link.stats().arrived, 10);
}

TEST(Link, QueueTimeAccounting) {
  EventQueue events;
  Rng rng(1);
  BottleneckLink link(events, 1000.0, 0.0,
                      std::make_unique<DropTailAqm>(100.0), rng,
                      [](const Packet&) {});
  events.schedule_at(0.0, [&] {
    for (int i = 0; i < 2; ++i) {
      Packet p;
      p.flow = 0;
      p.seq = i;
      link.offer(p);
    }
  });
  events.run_until(1.0);
  link.flush_accounting();
  // Second packet waits 1 ms in the queue → ∫q dt = 1 pkt·ms.
  EXPECT_NEAR(link.stats().queue_time_pkts_s, 0.001, 1e-9);
  EXPECT_DOUBLE_EQ(link.stats().max_queue_pkts, 1.0);
}

TEST(WindowedFilter, MaxTracksAndExpires) {
  WindowedMax f(10.0);
  f.reset(0.0, 5.0);
  f.update(1.0, 3.0);
  EXPECT_DOUBLE_EQ(f.best(), 5.0);
  f.update(2.0, 8.0);
  EXPECT_DOUBLE_EQ(f.best(), 8.0);
  // The old best ages out of the window; newer values take over.
  f.update(13.0, 4.0);
  f.update(14.0, 4.5);
  EXPECT_LE(f.best(), 8.0);
  f.update(25.0, 1.0);
  EXPECT_LE(f.best(), 4.5);
}

TEST(WindowedFilter, MinVariant) {
  WindowedMin f(10.0);
  f.reset(0.0, 5.0);
  f.update(1.0, 7.0);
  EXPECT_DOUBLE_EQ(f.best(), 5.0);
  f.update(2.0, 2.0);
  EXPECT_DOUBLE_EQ(f.best(), 2.0);
}

/// A trivial CCA with a constant window (transport-layer test fixture).
class FixedWindowCca : public PacketCca {
 public:
  explicit FixedWindowCca(double cwnd) : cwnd_(cwnd) {}
  void on_ack(const AckEvent&) override {}
  void on_loss(const LossEvent&) override {}
  double cwnd_pkts() const override { return cwnd_; }
  std::string name() const override { return "fixed"; }

 private:
  double cwnd_;
};

/// A fixed-window CCA that records when retransmission timeouts fire.
class RtoRecordingCca : public FixedWindowCca {
 public:
  explicit RtoRecordingCca(std::vector<double>* rtos)
      : FixedWindowCca(2.0), rtos_(rtos) {}
  void on_rto(double now) override { rtos_->push_back(now); }

 private:
  std::vector<double>* rtos_;
};

TEST(Flow, RtoBacksOffExponentiallyUpToTheCap) {
  // The link is too slow to serve even the SYN, so the handshake timer
  // starts data at 1 s and nothing is ever acknowledged. Each timeout
  // doubles the initial 1 s RTO until the backoff cap (2^6 = 64 s).
  std::vector<double> rtos;
  PacketNet net(7, 1.0);
  net.add_link(1e-4, 0.010, 10.0, AqmKind::kDropTail);
  net.add_flow(0.005, {0}, std::make_unique<RtoRecordingCca>(&rtos));
  net.run(300.0);
  EXPECT_EQ(rtos, (std::vector<double>{2, 4, 8, 16, 32, 64, 128, 192, 256}));
  EXPECT_EQ(net.flow(0).stats().rtos, 9);
}

TEST(PacketNet, LosslessConservationWithFixedWindow) {
  // Window 20 ≪ buffer: no drops; every sent packet is delivered or in
  // flight at the end.
  PacketNet net(7);
  net.add_link(1000.0, 0.010, 1000.0, AqmKind::kDropTail);
  net.add_flow(0.005, {0}, std::make_unique<FixedWindowCca>(20.0));
  net.run(3.0);
  const auto s = net.flow(0).stats();
  EXPECT_GT(s.delivered, 100);
  EXPECT_EQ(s.lost_marked, 0);
  EXPECT_EQ(net.link(0).stats().dropped, 0);
  EXPECT_NEAR(static_cast<double>(s.data_sent),
              static_cast<double>(s.delivered) + net.flow(0).inflight_pkts(),
              1.0);
  // RTT sanity: smoothed RTT at least the propagation delay.
  EXPECT_GE(s.srtt_s, 0.030 - 1e-9);
  EXPECT_GE(s.min_rtt_s, 0.030 - 1e-9);
}

TEST(PacketNet, FixedWindowThroughputMatchesLittlesLaw) {
  // cwnd 20 over a ~31 ms RTT (30 ms propagation + 1 ms service) ≈ 645 pps,
  // below the 1000 pps bottleneck.
  PacketNet net(7);
  net.add_link(1000.0, 0.010, 1000.0, AqmKind::kDropTail);
  net.add_flow(0.005, {0}, std::make_unique<FixedWindowCca>(20.0));
  net.run(5.0);
  const auto m = net.aggregate_metrics();
  EXPECT_NEAR(m.mean_rate_pps[0], 20.0 / 0.031, 40.0);
}

TEST(PacketNet, ConservationUnderLoss) {
  PacketNet net(7);
  net.add_link(1000.0, 0.010, 20.0, AqmKind::kDropTail);
  net.add_flow(0.005, {0}, std::make_unique<RenoCca>());
  net.run(3.0);
  const auto s = net.flow(0).stats();
  const auto& ls = net.link(0).stats();
  EXPECT_GT(ls.dropped, 0);
  // Receiver cannot see more than was served.
  EXPECT_LE(s.received, ls.served);
  // Sender-side accounting: sent ≥ delivered + marked-lost − retransmits.
  EXPECT_GE(s.data_sent + 1,
            s.delivered + (s.lost_marked - s.retransmits));
}

TEST(PacketNet, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    PacketNet net(seed);
    net.add_link(1000.0, 0.010, 50.0, AqmKind::kRed);
    net.add_flow(0.005, {0}, std::make_unique<RenoCca>());
    net.add_flow(0.007, {0}, std::make_unique<RenoCca>());
    net.run(2.0);
    return std::make_pair(net.flow(0).stats().data_sent,
                          net.link(0).stats().dropped);
  };
  EXPECT_EQ(run_once(42), run_once(42));
  // Different seeds: RED randomness differs (drops almost surely diverge).
  EXPECT_NE(run_once(42).second, run_once(43).second);
}

TEST(PacketNet, TraceRowsCoverTheRun) {
  PacketNet net(7, 0.05);
  net.add_link(1000.0, 0.010, 100.0, AqmKind::kDropTail);
  net.add_flow(0.005, {0}, std::make_unique<RenoCca>());
  net.run(2.0);
  const auto& trace = net.trace();
  EXPECT_NEAR(static_cast<double>(trace.rows.size()), 40.0, 2.0);
  for (const auto& row : trace.rows) {
    ASSERT_EQ(row.flow_rate_pps.size(), 1u);
    EXPECT_GE(row.queue_pkts, 0.0);
    EXPECT_GE(row.loss_fraction, 0.0);
    EXPECT_LE(row.loss_fraction, 1.0);
  }
}

TEST(PacketNet, SecondRunKeepsSampling) {
  // run(1) then run(1) samples at the same times as one run(2).
  auto row_times = [](std::initializer_list<double> runs) {
    PacketNet net(7, 0.05);
    net.add_link(1000.0, 0.010, 100.0, AqmKind::kDropTail);
    net.add_flow(0.005, {0}, std::make_unique<RenoCca>());
    for (const double duration : runs) net.run(duration);
    std::vector<double> times;
    for (const auto& row : net.trace().rows) times.push_back(row.t);
    return times;
  };
  const auto once = row_times({2.0});
  const auto split = row_times({1.0, 1.0});
  ASSERT_GT(once.size(), 30u);
  EXPECT_EQ(split, once);
}

TEST(PacketNet, AggregateMetricsSanity) {
  PacketNet net(7);
  net.add_link(1000.0, 0.010, 30.0, AqmKind::kDropTail);
  net.add_flow(0.005, {0}, std::make_unique<RenoCca>());
  net.add_flow(0.006, {0}, std::make_unique<RenoCca>());
  net.run(4.0);
  const auto m = net.aggregate_metrics();
  EXPECT_GT(m.jain, 0.5);
  EXPECT_LE(m.jain, 1.0);
  EXPECT_GE(m.loss_pct, 0.0);
  EXPECT_GE(m.occupancy_pct, 0.0);
  EXPECT_LE(m.occupancy_pct, 100.0);
  EXPECT_GT(m.utilization_pct, 50.0);
  EXPECT_LE(m.utilization_pct, 100.1);
  EXPECT_EQ(m.mean_rate_pps.size(), 2u);
}

TEST(PacketNet, ValidatesUsage) {
  EXPECT_THROW(PacketNet(7, 0.0), PreconditionError);  // no sample interval
  PacketNet net(7);
  EXPECT_THROW(net.add_link(1000.0, 0.01, 0.5, AqmKind::kDropTail),
               PreconditionError);  // buffer below one packet
  EXPECT_THROW(net.run(1.0), PreconditionError);  // no flows
  const auto l0 = net.add_link(1000.0, 0.01, 10.0, AqmKind::kDropTail);
  net.add_flow(0.005, {l0}, std::make_unique<RenoCca>());
  net.run(0.5);
  EXPECT_THROW(net.add_flow(0.005, {l0}, std::make_unique<RenoCca>()),
               PreconditionError);  // after start
  EXPECT_THROW(net.add_link(1000.0, 0.01, 10.0, AqmKind::kDropTail),
               PreconditionError);  // after start
}

TEST(WindowedFilter, TracksBruteForceMaxWithinWindowBounds) {
  // Property check against a brute-force windowed maximum: the streaming
  // filter's best() is never above the max over the last 2·W of samples and
  // never below the max over the most recent W/4 (its freshest estimate).
  Rng rng(99);
  WindowedMax filter(10.0);
  std::vector<std::pair<double, double>> samples;  // (time, value)
  filter.reset(0.0, 0.0);
  double t = 0.0;
  for (int k = 0; k < 2000; ++k) {
    t += rng.uniform(0.05, 0.5);
    const double v = rng.uniform(0.0, 100.0);
    filter.update(t, v);
    samples.emplace_back(t, v);

    double max_2w = 0.0, max_quarter = 0.0;
    for (const auto& [ts, vs] : samples) {
      if (ts >= t - 20.0) max_2w = std::max(max_2w, vs);
      if (ts >= t - 2.5) max_quarter = std::max(max_quarter, vs);
    }
    ASSERT_LE(filter.best(), max_2w + 1e-9) << "t=" << t;
    ASSERT_GE(filter.best(), max_quarter - 1e-9) << "t=" << t;
  }
}

TEST(PacketNet, InOrderDeliveryWithoutLoss) {
  // FIFO property: with no drops, a single flow's packets reach the
  // receiver in send order, so the receiver never buffers out-of-order
  // data and delivered == received.
  PacketNet net(7);
  net.add_link(1000.0, 0.010, 10000.0, AqmKind::kDropTail);
  net.add_flow(0.005, {0}, std::make_unique<FixedWindowCca>(15.0));
  net.run(2.0);
  const auto s = net.flow(0).stats();
  EXPECT_EQ(net.link(0).stats().dropped, 0);
  EXPECT_EQ(s.retransmits, 0);
  EXPECT_EQ(s.delivered + static_cast<std::int64_t>(
                              net.flow(0).inflight_pkts()),
            s.data_sent);
}

TEST(PacketNet, TwoFixedWindowFlowsShareByWindowRatio) {
  // With both flows window-limited far below capacity, throughput follows
  // w/RTT: double the window → double the rate.
  PacketNet net(7);
  net.add_link(10000.0, 0.010, 10000.0, AqmKind::kDropTail);
  net.add_flow(0.005, {0}, std::make_unique<FixedWindowCca>(10.0));
  net.add_flow(0.005, {0}, std::make_unique<FixedWindowCca>(20.0));
  net.run(5.0);
  const auto m = net.aggregate_metrics();
  EXPECT_NEAR(m.mean_rate_pps[1] / m.mean_rate_pps[0], 2.0, 0.15);
}

TEST(PacketNet, StaggeredStartTimes) {
  PacketNet net(7);
  net.add_link(1000.0, 0.010, 100.0, AqmKind::kDropTail);
  net.add_flow(0.005, {0}, std::make_unique<RenoCca>(), 0.0);
  net.add_flow(0.005, {0}, std::make_unique<RenoCca>(), 1.0);
  net.run(2.0);
  // The late flow had half the time → it must have sent notably less.
  EXPECT_LT(net.flow(1).stats().data_sent, net.flow(0).stats().data_sent);
  EXPECT_GT(net.flow(1).stats().data_sent, 0);
}

}  // namespace
}  // namespace bbrmodel::packetsim
