#include "sweep/workloads.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>

#include "common/require.h"
#include "common/stats.h"
#include "core/engine.h"
#include "net/topology.h"
#include "packetsim/network.h"
#include "scenario/scenario.h"

namespace bbrmodel::sweep {

namespace {

/// Long-flow rate over the mean cross rate of one finished cell.
double long_over_cross(const metrics::AggregateMetrics& m) {
  RunningStats cross;
  for (std::size_t i = 1; i < m.mean_rate_pps.size(); ++i) {
    cross.add(m.mean_rate_pps[i]);
  }
  return m.mean_rate_pps.at(0) / std::max(1.0, cross.mean());
}

/// One-way access delays, one per flow (flow 0 = long flow). flow_rtts_s
/// entries are cross-flow total RTTs: 2·(access + one hop crossing), with
/// entry 1+h feeding hop h's cross flow. The long flow always keeps the
/// fixed default access delay (entry 0 is ignored) — the workload's
/// question is how a *fixed* long flow fares against varying cross
/// traffic, so an asymmetric RTT axis shapes the crosses, never the
/// subject. An empty vector means the default delay for everyone.
std::vector<double> access_delays(const scenario::ExperimentSpec& spec,
                                  std::size_t hops) {
  std::vector<double> delays(hops + 1, kParkingLotAccessDelay);
  for (std::size_t f = 1; f < delays.size() && f < spec.flow_rtts_s.size();
       ++f) {
    delays[f] = std::max(
        0.0005, spec.flow_rtts_s[f] / 2.0 - kParkingLotHopDelay);
  }
  return delays;
}

metrics::AggregateMetrics run_parking_lot(const SweepTask& task) {
  const auto& flows = task.spec.mix.flows;
  BBRM_REQUIRE_MSG(flows.size() >= 2,
                   "the parking-lot workload needs >= 2 flows (one long "
                   "flow + one cross flow per hop)");
  const std::size_t hops = flows.size() - 1;
  const double cap_pps = task.spec.capacity_pps;
  const double t_end = task.spec.duration_s;
  const auto access = access_delays(task.spec, hops);
  metrics::AggregateMetrics m;

  if (task.backend == Backend::kFluid) {
    net::ParkingLotSpec spec;
    spec.num_hops = hops;
    spec.cross_flows_per_hop = 1;
    spec.hop_capacity_pps = cap_pps;
    spec.hop_delay_s = kParkingLotHopDelay;
    spec.access_delay_s = access[0];
    spec.cross_access_delays_s.assign(access.begin() + 1, access.end());
    const auto lot = net::make_parking_lot(spec);
    std::vector<std::unique_ptr<core::FluidCca>> agents;
    for (std::size_t a = 0; a < lot.topology.num_agents(); ++a) {
      agents.push_back(scenario::make_fluid_cca(flows[a]));
    }
    core::FluidSimulation sim(lot.topology, std::move(agents), {});
    sim.run(t_end);
    for (std::size_t a = 0; a < lot.topology.num_agents(); ++a) {
      m.mean_rate_pps.push_back(sim.sent_pkts(a) / t_end);
    }
  } else {
    BBRM_REQUIRE_MSG(task.backend == Backend::kPacket,
                     "the parking-lot workload runs on the fluid or packet "
                     "backend (reduced has no multi-hop closed form)");
    packetsim::PacketNet net(task.spec.seed);
    std::vector<std::size_t> chain;
    for (std::size_t h = 0; h < hops; ++h) {
      chain.push_back(net.add_link(cap_pps, kParkingLotHopDelay, 260.0,
                                   packetsim::AqmKind::kDropTail));
    }
    net.add_flow(access[0], chain,
                 scenario::make_packet_cca(flows[0], task.spec.seed + 500));
    for (std::size_t h = 0; h < hops; ++h) {
      net.add_flow(access[1 + h], {chain[h]},
                   scenario::make_packet_cca(flows[1 + h],
                                             task.spec.seed + 600 + h));
    }
    net.run(t_end);
    m.mean_rate_pps = net.aggregate_metrics().mean_rate_pps;
  }
  // A chain has no single bottleneck for loss, occupancy, utilization and
  // jitter to describe: NaN, printed as empty CSV cells and JSON nulls.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  m.jain = jain_index(m.mean_rate_pps);
  m.loss_pct = m.occupancy_pct = m.utilization_pct = m.jitter_ms = nan;
  m.aux = {long_over_cross(m)};
  return m;
}

/// The runner registry: one row per resolvable runner name. Adding a
/// backend = adding one row here; runner_by_name and runner_names both
/// iterate this table, so they can never drift apart.
struct RunnerEntry {
  const char* name;
  Runner (*make)();
};

constexpr RunnerEntry kRunnerRegistry[] = {
    {"fluid", fluid_runner},
    {"packet", packet_runner},
    {"reduced", reduced_runner},
    {"backend", backend_runner},
    {"parking-lot", parking_lot_runner},
};

}  // namespace

Runner parking_lot_runner() {
  return make_runner("parking-lot",
                     [](const SweepTask& task) { return run_parking_lot(task); });
}

Runner runner_by_name(const std::string& name) {
  for (const auto& entry : kRunnerRegistry) {
    if (name == entry.name) return entry.make();
  }
  std::string valid;
  for (const auto& known : runner_names()) {
    if (!valid.empty()) valid += ", ";
    valid += known;
  }
  BBRM_REQUIRE_MSG(false,
                   "unknown runner '" + name + "' (valid: " + valid + ")");
  return {};
}

std::vector<std::string> runner_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kRunnerRegistry));
  for (const auto& entry : kRunnerRegistry) names.emplace_back(entry.name);
  return names;
}

}  // namespace bbrmodel::sweep
