// parking_lot — the paper's §8 future-work scenario: BBR fluid models on a
// multi-bottleneck chain, compared with the packet-level experiment.
//
// One "long" flow crosses `hops` equal 100 Mbps bottlenecks; one cross flow
// enters at each hop. Prints the long flow's share of its per-hop fair
// share ("normalized share") for each CCA choice of the long flow.
//
// Usage: parking_lot [hops] [duration_s]
#include <cstdio>
#include <cstdlib>

#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "core/engine.h"
#include "net/topology.h"
#include "packetsim/network.h"
#include "scenario/scenario.h"

namespace {

using namespace bbrmodel;

struct LotResult {
  double long_rate_pps = 0.0;
  double cross_mean_pps = 0.0;
};

LotResult run_fluid_lot(scenario::CcaKind long_kind, std::size_t hops,
                        double duration) {
  net::ParkingLotSpec spec;
  spec.num_hops = hops;
  spec.cross_flows_per_hop = 1;
  spec.hop_capacity_pps = mbps_to_pps(100.0);
  const auto lot = net::make_parking_lot(spec);

  std::vector<std::unique_ptr<core::FluidCca>> agents;
  agents.push_back(scenario::make_fluid_cca(long_kind));
  for (std::size_t a = 1; a < lot.topology.num_agents(); ++a) {
    agents.push_back(scenario::make_fluid_cca(scenario::CcaKind::kReno));
  }
  core::FluidSimulation sim(lot.topology, std::move(agents), {});
  sim.run(duration);

  LotResult r;
  r.long_rate_pps = sim.sent_pkts(lot.long_flow) / duration;
  RunningStats cross;
  for (std::size_t a = 1; a < lot.topology.num_agents(); ++a) {
    cross.add(sim.sent_pkts(a) / duration);
  }
  r.cross_mean_pps = cross.mean();
  return r;
}

LotResult run_packet_lot(scenario::CcaKind long_kind, std::size_t hops,
                         double duration) {
  packetsim::PacketNet net(17);
  const double cap = mbps_to_pps(100.0);
  std::vector<std::size_t> chain;
  for (std::size_t h = 0; h < hops; ++h) {
    chain.push_back(
        net.add_link(cap, 0.005, 260.0, packetsim::AqmKind::kDropTail));
  }
  net.add_flow(0.005, chain, scenario::make_packet_cca(long_kind, 1000));
  for (std::size_t h = 0; h < hops; ++h) {
    net.add_flow(0.005, {chain[h]},
                 scenario::make_packet_cca(scenario::CcaKind::kReno,
                                           2000 + h));
  }
  net.run(duration);

  LotResult r;
  const auto rates = net.aggregate_metrics().mean_rate_pps;
  r.long_rate_pps = rates[0];
  RunningStats cross;
  for (std::size_t i = 1; i < rates.size(); ++i) cross.add(rates[i]);
  r.cross_mean_pps = cross.mean();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t hops = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 3;
  const double duration = argc > 2 ? std::atof(argv[2]) : 8.0;

  std::printf("Parking lot: 1 long flow over %zu hops vs 1 Reno cross flow "
              "per hop (%.0f s)\n\n", hops, duration);

  Table table({"long-flow CCA", "model long[Mbps]", "model cross[Mbps]",
               "model ratio", "exp long[Mbps]", "exp cross[Mbps]",
               "exp ratio"});
  for (auto kind : {scenario::CcaKind::kReno, scenario::CcaKind::kCubic,
                    scenario::CcaKind::kBbrv1, scenario::CcaKind::kBbrv2}) {
    const auto m = run_fluid_lot(kind, hops, duration);
    const auto e = run_packet_lot(kind, hops, duration);
    table.add_row({scenario::to_string(kind),
                   format_double(pps_to_mbps(m.long_rate_pps), 1),
                   format_double(pps_to_mbps(m.cross_mean_pps), 1),
                   format_double(m.long_rate_pps /
                                     std::max(1.0, m.cross_mean_pps), 2),
                   format_double(pps_to_mbps(e.long_rate_pps), 1),
                   format_double(pps_to_mbps(e.cross_mean_pps), 1),
                   format_double(e.long_rate_pps /
                                     std::max(1.0, e.cross_mean_pps), 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: ratio < 1 means the long flow gets less than the cross\n"
      "flows (classic AIMD parking-lot penalty). BBR's rate-based probing\n"
      "is less sensitive to crossing multiple loss points.\n");
  return 0;
}
