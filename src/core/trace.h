// Trace recording for fluid simulations.
//
// The engine samples agent and link state on a fixed interval. Every run
// keeps each agent's RTT (RttSeries, which the jitter metric reads); a run
// asked for the full FluidTrace also keeps every rate, CCA variable and
// link state, which the figure benches consume (normalized exactly as the
// paper's figures: % of link rate, % of buffer, % of traffic, relative
// excess delay, % of path BDP).
#pragma once

#include <cstddef>
#include <vector>

#include "core/fluid_cca.h"

namespace bbrmodel::core {

/// Per-agent trace record.
struct AgentSample {
  double rate_pps = 0.0;           ///< x_i(t)
  double delivery_rate_pps = 0.0;  ///< x^dlv_i(t)
  double rtt_s = 0.0;              ///< τ_i(t)
  CcaTelemetry cca;                ///< internal CCA variables
};

/// Per-link trace record.
struct LinkSample {
  double queue_pkts = 0.0;    ///< q_ℓ(t)
  double loss_prob = 0.0;     ///< p_ℓ(t)
  double arrival_pps = 0.0;   ///< y_ℓ(t)
};

/// One trace row.
struct FluidSample {
  double t = 0.0;
  std::vector<AgentSample> agents;
  std::vector<LinkSample> links;
};

/// A full simulation trace.
struct FluidTrace {
  double sample_interval_s = 0.0;
  std::vector<FluidSample> samples;

  bool empty() const { return samples.empty(); }
  std::size_t size() const { return samples.size(); }
};

/// Each agent's RTT τ_i(t) at every record tick, row-major: row k holds
/// agents 0..N−1 at t = k·sample_interval_s, the values AgentSample::rtt_s
/// of trace row k would hold.
struct RttSeries {
  double sample_interval_s = 0.0;
  std::size_t num_agents = 0;
  std::vector<double> rtt_s;

  std::size_t rows() const {
    return num_agents == 0 ? 0 : rtt_s.size() / num_agents;
  }
  double at(std::size_t row, std::size_t agent) const {
    return rtt_s[row * num_agents + agent];
  }
};

}  // namespace bbrmodel::core
