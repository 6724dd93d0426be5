// Aggregate network-performance metrics (paper §4.3).
//
// The five metrics validated in the paper: Jain fairness (Fig. 6), packet
// loss (Fig. 7), buffer occupancy (Fig. 8), bottleneck utilization (Fig. 9),
// and jitter (Fig. 10). evaluate_fluid computes them from a finished fluid
// simulation; the packet simulator computes its own (metrics/… in
// packetsim) and both report this struct, so benches can print model and
// experiment side by side.
#pragma once

#include <cstddef>
#include <vector>

#include "core/engine.h"

namespace bbrmodel::metrics {

/// The paper's five aggregate metrics plus the per-flow rates behind Jain.
struct AggregateMetrics {
  double jain = 1.0;             ///< Jain index of per-flow mean rates
  double loss_pct = 0.0;         ///< lost / sent traffic, percent
  double occupancy_pct = 0.0;    ///< time-average queue / buffer, percent
  double utilization_pct = 0.0;  ///< served / capacity at bottleneck, percent
  double jitter_ms = 0.0;        ///< mean |Δ delay| between consecutive
                                 ///< (virtual) packets, milliseconds
  std::vector<double> mean_rate_pps;  ///< per-flow mean sending rate
  /// Runner-defined extra values. Custom sweep runners (theory tables,
  /// multi-hop extensions) carry their figure-specific columns here; the
  /// standard CSV/JSON emitters ignore it, benches re-bin it.
  std::vector<double> aux;
};

/// Evaluate a finished fluid simulation over its full runtime. Reads the
/// cumulative accounting and the RTT series, which every simulation
/// records, so it needs no full trace. Jitter samples each agent's RTT
/// every g·N/C seconds with g = 1 packet (§4.3.5).
///
/// @param sim              the simulation (must have run for > 0 s)
/// @param bottleneck_link  link used for occupancy and utilization
AggregateMetrics evaluate_fluid(const core::FluidSimulation& sim,
                                std::size_t bottleneck_link);

/// Jitter of one RTT series sampled at a fixed spacing (helper; exposed for
/// tests). Returns mean |τ_{k+1} − τ_k| in milliseconds.
double jitter_of_series_ms(const std::vector<double>& rtt_s);

}  // namespace bbrmodel::metrics
