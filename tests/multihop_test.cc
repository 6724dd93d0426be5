// Multi-bottleneck scenarios (paper §8 future work): parking-lot topology
// in the fluid model and chains of links in the packet-level PacketNet.
#include <gtest/gtest.h>

#include <memory>

#include "common/require.h"
#include "common/stats.h"
#include "common/units.h"
#include "core/engine.h"
#include "net/topology.h"
#include "packetsim/network.h"
#include "packetsim/reno_cca.h"
#include "packetsim/bbr1_cca.h"
#include "packetsim/bbr2_cca.h"
#include "scenario/scenario.h"

namespace bbrmodel {
namespace {

net::ParkingLotSpec lot_spec(std::size_t hops, std::size_t cross) {
  net::ParkingLotSpec spec;
  spec.num_hops = hops;
  spec.cross_flows_per_hop = cross;
  spec.hop_capacity_pps = mbps_to_pps(100.0);
  spec.hop_delay_s = 0.005;
  spec.access_delay_s = 0.005;
  spec.buffer_bdp = 1.0;
  return spec;
}

TEST(ParkingLotTopology, Structure) {
  const auto lot = net::make_parking_lot(lot_spec(3, 2));
  // 3 hops + 1 long-flow access + 6 cross accesses = 10 links.
  EXPECT_EQ(lot.topology.num_links(), 10u);
  // 1 long + 6 cross flows.
  EXPECT_EQ(lot.topology.num_agents(), 7u);
  EXPECT_EQ(lot.hop_links.size(), 3u);
  // The long flow traverses every hop.
  for (std::size_t h : lot.hop_links) {
    const auto agents = lot.topology.agents_on_link(h);
    EXPECT_NE(std::find(agents.begin(), agents.end(), lot.long_flow),
              agents.end());
  }
  // Cross flows traverse exactly one hop each.
  for (std::size_t a = 1; a < lot.topology.num_agents(); ++a) {
    EXPECT_EQ(lot.topology.path(a).size(), 2u);  // access + one hop
  }
}

TEST(ParkingLotTopology, LongFlowRttSpansAllHops) {
  const auto lot = net::make_parking_lot(lot_spec(4, 1));
  const auto d = lot.topology.path_delays(lot.long_flow);
  // 2 × (access 5 ms + 4 × 5 ms hops) = 50 ms.
  EXPECT_NEAR(d.rtt_prop_s, 0.050, 1e-12);
}

TEST(ParkingLotTopology, Validation) {
  auto bad = lot_spec(0, 1);
  EXPECT_THROW(net::make_parking_lot(bad), PreconditionError);
}

TEST(ParkingLotFluid, CrossTrafficSqueezesTheLongRenoFlow) {
  // Classic parking-lot result for AIMD: the long flow (crossing k
  // bottlenecks, larger RTT, loss at every hop) gets less than the
  // per-hop fair share.
  const auto lot = net::make_parking_lot(lot_spec(3, 1));
  std::vector<std::unique_ptr<core::FluidCca>> agents;
  for (std::size_t a = 0; a < lot.topology.num_agents(); ++a) {
    agents.push_back(scenario::make_fluid_cca(scenario::CcaKind::kReno));
  }
  core::FluidSimulation sim(lot.topology, std::move(agents), {});
  sim.run(10.0);

  const double long_rate = sim.sent_pkts(lot.long_flow) / 10.0;
  RunningStats cross;
  for (std::size_t a = 1; a < lot.topology.num_agents(); ++a) {
    cross.add(sim.sent_pkts(a) / 10.0);
  }
  EXPECT_LT(long_rate, cross.mean());
  // Every hop stays highly utilized (long + local cross ≈ capacity).
  for (std::size_t h : lot.hop_links) {
    const auto& acct = sim.link_accounting(h);
    EXPECT_GT(acct.served_pkts / 10.0, 0.85 * mbps_to_pps(100.0));
  }
}

TEST(ParkingLotFluid, InvariantsAcrossHops) {
  const auto lot = net::make_parking_lot(lot_spec(2, 2));
  std::vector<std::unique_ptr<core::FluidCca>> agents;
  for (std::size_t a = 0; a < lot.topology.num_agents(); ++a) {
    agents.push_back(scenario::make_fluid_cca(
        a == 0 ? scenario::CcaKind::kBbrv2 : scenario::CcaKind::kReno));
  }
  core::FluidConfig cfg;
  cfg.step_s = 100e-6;
  core::FluidSimulation sim(lot.topology, std::move(agents), cfg,
                            core::Recording::kFullTrace);
  sim.run(4.0);
  for (const auto& s : sim.trace().samples) {
    for (std::size_t l = 0; l < s.links.size(); ++l) {
      EXPECT_GE(s.links[l].queue_pkts, -1e-9);
      EXPECT_LE(s.links[l].queue_pkts,
                sim.topology().link(l).buffer_pkts + 1e-6);
      EXPECT_GE(s.links[l].loss_prob, 0.0);
      EXPECT_LE(s.links[l].loss_prob, 1.0);
    }
  }
}

TEST(PacketNet, SingleFlowAcrossTwoHopsDelivers) {
  packetsim::PacketNet net(7);
  const auto l0 = net.add_link(1000.0, 0.005, 100.0,
                               packetsim::AqmKind::kDropTail);
  const auto l1 = net.add_link(1000.0, 0.005, 100.0,
                               packetsim::AqmKind::kDropTail);
  net.add_flow(0.005, {l0, l1}, std::make_unique<packetsim::RenoCca>());
  net.run(3.0);
  const auto s = net.flow(0).stats();
  EXPECT_GT(s.delivered, 500);
  // RTT ≥ 2 × (5 + 5 + 5) ms = 30 ms.
  EXPECT_GE(s.min_rtt_s, 0.030 - 1e-9);
  // Both hops saw the same packets (minus those still propagating between
  // the hops at the horizon).
  const auto in_transit =
      net.link(l0).stats().served - net.link(l1).stats().arrived;
  EXPECT_GE(in_transit, 0);
  EXPECT_LE(in_transit, 20);
}

TEST(PacketNet, SecondHopNeverSeesMoreThanFirstServes) {
  packetsim::PacketNet net(7);
  const auto l0 =
      net.add_link(1000.0, 0.005, 20.0, packetsim::AqmKind::kDropTail);
  const auto l1 =
      net.add_link(500.0, 0.005, 20.0, packetsim::AqmKind::kDropTail);
  net.add_flow(0.005, {l0, l1}, std::make_unique<packetsim::RenoCca>());
  net.run(3.0);
  EXPECT_LE(net.link(l1).stats().arrived, net.link(l0).stats().served);
  // The 500 pps second hop is the real bottleneck: served ≈ its capacity.
  EXPECT_LT(net.flow(0).stats().delivered, 3.0 * 550.0);
}

TEST(PacketNet, ParkingLotLongFlowDisadvantaged) {
  packetsim::PacketNet net(11);
  const double cap = mbps_to_pps(100.0);
  std::vector<std::size_t> hops;
  for (int h = 0; h < 3; ++h) {
    hops.push_back(net.add_link(cap, 0.005, 260.0,
                                packetsim::AqmKind::kDropTail));
  }
  net.add_flow(0.005, hops, std::make_unique<packetsim::RenoCca>());
  for (std::size_t h = 0; h < hops.size(); ++h) {
    net.add_flow(0.005, {hops[h]}, std::make_unique<packetsim::RenoCca>());
  }
  net.run(8.0);
  const auto rates = net.aggregate_metrics().mean_rate_pps;
  RunningStats cross;
  for (std::size_t i = 1; i < rates.size(); ++i) cross.add(rates[i]);
  EXPECT_LT(rates[0], cross.mean());
}

TEST(PacketNet, Bbrv1LongFlowHoldsShareBetterThanReno) {
  // BBR's rate-based probing is less sensitive to multiple loss points than
  // AIMD — the long BBRv1 flow keeps a larger share than a long Reno flow
  // in the same lot.
  auto long_share = [](auto make_cca) {
    packetsim::PacketNet net(11);
    const double cap = mbps_to_pps(100.0);
    std::vector<std::size_t> hops;
    for (int h = 0; h < 3; ++h) {
      hops.push_back(net.add_link(cap, 0.005, 260.0,
                                  packetsim::AqmKind::kDropTail));
    }
    net.add_flow(0.005, hops, make_cca(0));
    for (std::size_t h = 0; h < hops.size(); ++h) {
      net.add_flow(0.005, {hops[h]},
                   std::make_unique<packetsim::RenoCca>());
    }
    net.run(8.0);
    return net.aggregate_metrics().mean_rate_pps[0];
  };
  const double reno_long = long_share([](int) {
    return std::make_unique<packetsim::RenoCca>();
  });
  const double bbr_long = long_share([](int i) {
    return std::make_unique<packetsim::Bbr1Cca>(100 + i);
  });
  EXPECT_GT(bbr_long, reno_long);
}

TEST(PacketNet, ValidatesRoutes) {
  packetsim::PacketNet net(1);
  EXPECT_THROW(net.run(1.0), PreconditionError);  // no flows
  const auto l0 =
      net.add_link(1000.0, 0.005, 50.0, packetsim::AqmKind::kDropTail);
  const auto l1 =
      net.add_link(1000.0, 0.005, 50.0, packetsim::AqmKind::kDropTail);
  EXPECT_THROW(net.add_flow(0.005, {l0, l1 + 5},
                            std::make_unique<packetsim::RenoCca>()),
               PreconditionError);  // unknown link
  EXPECT_THROW(net.add_flow(0.005, {},
                            std::make_unique<packetsim::RenoCca>()),
               PreconditionError);  // empty path
  net.add_flow(0.005, {l0, l1}, std::make_unique<packetsim::RenoCca>());
  net.run(0.1);
}

}  // namespace
}  // namespace bbrmodel
