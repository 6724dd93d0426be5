#include "cca/cubic.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace bbrmodel::cca {

namespace {

/// K = ∛(w_max·(1 − β)/c), the time the cubic takes to regain w_max.
double cubic_k(double window_at_loss_pkts) {
  return std::cbrt(window_at_loss_pkts * (1.0 - CubicFluid::kBeta) /
                   CubicFluid::kC);
}

double cubic_window_with_k(double since_loss_s, double window_at_loss_pkts,
                           double k) {
  const double d = since_loss_s - k;
  return CubicFluid::kC * d * d * d + window_at_loss_pkts;
}

}  // namespace

double cubic_window(double since_loss_s, double window_at_loss_pkts) {
  return cubic_window_with_k(since_loss_s, window_at_loss_pkts,
                             cubic_k(window_at_loss_pkts));
}

CubicFluid::CubicFluid(double initial_window_pkts)
    : initial_window_(initial_window_pkts) {
  BBRM_REQUIRE_MSG(initial_window_pkts >= 1.0,
                   "initial window must be at least one segment");
}

void CubicFluid::init(const core::AgentContext& ctx) {
  ctx_ = ctx;
  since_loss_ = 0.0;
  window_at_loss_ = initial_window_ / kBeta;
  k_ = cubic_k(window_at_loss_);
  ss_window_ = initial_window_;
  slow_start_ = ctx.config == nullptr || ctx.config->loss_based_slow_start;
}

void CubicFluid::set_window_at_loss(double w) {
  // w^max moves only under loss, so K (a cube root) is mostly reused.
  if (!(w == window_at_loss_)) {
    window_at_loss_ = w;
    k_ = cubic_k(w);
  }
}

double CubicFluid::window_pkts() const {
  if (slow_start_) return std::max(1.0, ss_window_);
  return std::max(1.0, cubic_window_with_k(since_loss_, window_at_loss_, k_));
}

double CubicFluid::sending_rate(const core::AgentInputs& in) const {
  BBRM_REQUIRE_MSG(in.rtt > 0.0, "RTT must be positive");
  return window_pkts() / in.rtt;  // Eq. (8)
}

void CubicFluid::advance(const core::AgentInputs& in, double current_rate,
                         double h) {
  (void)current_rate;
  const double eps =
      ctx_.config != nullptr ? ctx_.config->loss_indicator_eps : 1e-3;

  if (slow_start_) {
    // Fluid slow start (DESIGN.md §5.10): doubles per RTT until first loss,
    // then hands the window over as w^max and starts the cubic epoch.
    if (in.loss_delayed > eps) {
      slow_start_ = false;
      set_window_at_loss(std::max(1.0, ss_window_));
      since_loss_ = 0.0;
    } else {
      ss_window_ += h * in.rate_delayed * (1.0 - in.loss_delayed);
      return;
    }
  }

  // Loss intensity x·p capped at one congestion event per RTT
  // (DESIGN.md §5.11) — the literal per-lost-packet form death-spirals
  // under burst loss.
  double loss_intensity = in.rate_delayed * in.loss_delayed;
  if (ctx_.config == nullptr || ctx_.config->per_rtt_loss_events) {
    loss_intensity = std::min(loss_intensity, 1.0 / std::max(in.rtt, 1e-6));
  }
  // Eq. (40a): grows at unit rate, collapses to 0 under loss.
  since_loss_ += h * (1.0 - since_loss_ * loss_intensity);
  since_loss_ = std::max(0.0, since_loss_);
  // Eq. (40b): assimilates to the current window under loss.
  set_window_at_loss(std::max(
      1.0, window_at_loss_ +
               h * (window_pkts() - window_at_loss_) * loss_intensity));
}

core::CcaTelemetry CubicFluid::telemetry() const {
  core::CcaTelemetry t;
  t.cwnd_pkts = window_pkts();
  return t;
}

}  // namespace bbrmodel::cca
