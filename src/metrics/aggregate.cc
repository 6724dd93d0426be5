#include "metrics/aggregate.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"
#include "common/stats.h"

namespace bbrmodel::metrics {
namespace {

/// g in the paper's jitter recipe (§4.3.5): each agent's RTT is sampled
/// every g·N/C seconds to mimic per-packet sampling.
constexpr double kJitterVirtualPacketPkts = 1.0;

/// Linear interpolation of an agent's recorded RTT.
double rtt_at(const core::RttSeries& rtt, std::size_t agent, double t) {
  const std::size_t n = rtt.rows();
  const double pos = t / rtt.sample_interval_s;
  const auto lo = static_cast<std::size_t>(
      std::clamp(std::floor(pos), 0.0, static_cast<double>(n - 1)));
  const std::size_t hi = std::min(lo + 1, n - 1);
  const double frac = std::clamp(pos - static_cast<double>(lo), 0.0, 1.0);
  const double a = rtt.at(lo, agent);
  const double b = rtt.at(hi, agent);
  return a + (b - a) * frac;
}

}  // namespace

double jitter_of_series_ms(const std::vector<double>& rtt_s) {
  if (rtt_s.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t k = 1; k < rtt_s.size(); ++k) {
    acc += std::abs(rtt_s[k] - rtt_s[k - 1]);
  }
  return acc / static_cast<double>(rtt_s.size() - 1) * 1e3;
}

AggregateMetrics evaluate_fluid(const core::FluidSimulation& sim,
                                std::size_t bottleneck_link) {
  const double duration = sim.now();
  BBRM_REQUIRE_MSG(duration > 0.0, "simulation has not run");
  const std::size_t n_agents = sim.num_agents();
  const net::Topology& topology = sim.topology();
  const net::Link& bottleneck = topology.link(bottleneck_link);
  const core::LinkAccounting& bottleneck_acct =
      sim.link_accounting(bottleneck_link);
  AggregateMetrics out;

  // Per-flow mean sending rates and Jain fairness.
  out.mean_rate_pps.resize(n_agents);
  for (std::size_t i = 0; i < n_agents; ++i) {
    out.mean_rate_pps[i] = sim.sent_pkts(i) / duration;
  }
  out.jain = jain_index(out.mean_rate_pps);

  // Loss: all dropped volume over all sent volume.
  double lost = 0.0;
  double sent = 0.0;
  for (std::size_t l = 0; l < topology.num_links(); ++l) {
    lost += sim.link_accounting(l).lost_pkts;
  }
  for (std::size_t i = 0; i < n_agents; ++i) {
    sent += sim.sent_pkts(i);
  }
  out.loss_pct = sent > 0.0 ? 100.0 * lost / sent : 0.0;

  // Occupancy and utilization at the bottleneck.
  if (bottleneck.buffer_pkts > 0.0) {
    out.occupancy_pct = 100.0 *
                        (bottleneck_acct.queue_time_pkts_s / duration) /
                        bottleneck.buffer_pkts;
  }
  out.utilization_pct = 100.0 * bottleneck_acct.served_pkts /
                        (bottleneck.capacity_pps * duration);

  // Jitter (§4.3.5): sample each agent's RTT at the virtual packet rate
  // g·N/C and average the per-agent jitters.
  const core::RttSeries& rtt = sim.rtt_series();
  if (rtt.rows() >= 2) {
    const double spacing = kJitterVirtualPacketPkts *
                           static_cast<double>(n_agents) /
                           bottleneck.capacity_pps;
    RunningStats per_agent;
    std::vector<double> series;
    for (std::size_t i = 0; i < n_agents; ++i) {
      series.clear();
      for (double t = 0.0; t <= duration; t += spacing) {
        series.push_back(rtt_at(rtt, i, t));
      }
      per_agent.add(jitter_of_series_ms(series));
    }
    out.jitter_ms = per_agent.mean();
  }
  return out;
}

}  // namespace bbrmodel::metrics
