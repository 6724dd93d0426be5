// Queue and loss laws of the network fluid model (paper §2).
//
// Pure inline functions: the fluid engine calls them once per link per
// solver step, where an out-of-line call costs more than the arithmetic,
// and the analysis module and the unit tests reuse the same definitions.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "net/topology.h"
#include "ode/smooth.h"

namespace bbrmodel::net {

/// Smoothing parameters of the loss laws (paper Eqs. 4–5; DESIGN.md §6).
struct LossLawParams {
  /// Sigmoid sharpness K for rate comparisons (argument in packets/s).
  double rate_sharpness = 1.0;
  /// Exponent L ≫ 1 of the (q/B)^L fullness factor.
  double fullness_exponent = 20.0;
};

/// Drop-tail loss probability (Eq. 4):
///   p = σ(y − C) · (1 − C/y) · (q/B)^L.
/// Zero when the buffer is unbounded (B = 0 means "no buffer": always full,
/// excess dropped). y ≤ 0 yields 0.
inline double droptail_loss(double arrival_pps, double capacity_pps,
                            double queue_pkts, double buffer_pkts,
                            const LossLawParams& params = {}) {
  if (arrival_pps <= 0.0) return 0.0;
  const double excess = 1.0 - capacity_pps / arrival_pps;
  if (excess <= 0.0) return 0.0;
  double fullness = 1.0;
  if (buffer_pkts > 0.0) {
    const double ratio = std::clamp(queue_pkts / buffer_pkts, 0.0, 1.0);
    fullness = std::pow(ratio, params.fullness_exponent);
  }
  const double gate =
      ode::sigmoid(arrival_pps - capacity_pps, params.rate_sharpness);
  return std::clamp(gate * excess * fullness, 0.0, 1.0);
}

/// Idealized RED loss probability (Eq. 6): p = q / B ∈ [0, 1].
inline double red_loss(double queue_pkts, double buffer_pkts) {
  if (buffer_pkts <= 0.0) return 1.0;
  return std::clamp(queue_pkts / buffer_pkts, 0.0, 1.0);
}

/// Link loss probability under the link's configured discipline.
inline double link_loss(const Link& link, double arrival_pps,
                        double queue_pkts, const LossLawParams& params = {}) {
  switch (link.discipline) {
    case Discipline::kDropTail:
      return droptail_loss(arrival_pps, link.capacity_pps, queue_pkts,
                           link.buffer_pkts, params);
    case Discipline::kRed:
      return red_loss(queue_pkts, link.buffer_pkts);
  }
  return 0.0;
}

/// Queue drift (Eq. 2): q̇ = (1 − p)·y − C, with reflecting boundaries at 0
/// and B applied by the integrator (returns the unconstrained drift).
inline double queue_drift(double arrival_pps, double capacity_pps,
                          double loss_prob) {
  return (1.0 - loss_prob) * arrival_pps - capacity_pps;
}

/// One explicit-Euler queue update with boundary clamping to [0, B].
inline double step_queue(double queue_pkts, double arrival_pps,
                         double capacity_pps, double loss_prob,
                         double buffer_pkts, double dt) {
  const double next =
      queue_pkts + dt * queue_drift(arrival_pps, capacity_pps, loss_prob);
  const double cap = buffer_pkts > 0.0
                         ? buffer_pkts
                         : std::numeric_limits<double>::infinity();
  return std::clamp(next, 0.0, cap);
}

/// Link latency (Eq. 3 contribution): d + q/C.
inline double link_latency(const Link& link, double queue_pkts) {
  return link.prop_delay_s + queue_pkts / link.capacity_pps;
}

/// Service rate actually leaving the link: C when backlogged, otherwise the
/// admitted arrival rate (used for utilization accounting).
inline double service_rate(double arrival_pps, double capacity_pps,
                           double loss_prob, double queue_pkts) {
  if (queue_pkts > 1e-9) return capacity_pps;
  return std::min(capacity_pps, (1.0 - loss_prob) * arrival_pps);
}

}  // namespace bbrmodel::net
