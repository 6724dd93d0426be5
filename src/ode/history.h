// Fixed-step signal histories for delay-differential equations.
//
// The network fluid model needs delayed lookups such as x_i(t − d^f_{i,ℓ})
// (Eq. 1), q_ℓ(t − d^b_{i,ℓ}) and y_ℓ(t − d^b_{i,ℓ}) (Eq. 17), and
// τ_i(t − d^p_i) (Eq. 9). Samples live on the solver grid and reads are
// linearly interpolated; reads before the first sample return the initial
// value (constant pre-history, the standard method-of-steps
// initialization). interpolate_at is that read for any ring layout;
// DelayHistory is the single-signal ring.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace bbrmodel::ode {

/// Ring length for `horizon` seconds of lookback on a `step` grid: the
/// window plus both interpolation neighbours. Requires step > 0 and
/// horizon ≥ 0.
std::size_t history_capacity(double step, double horizon);

/// Linearly interpolated read at absolute time t of a signal sampled at
/// k·step, of which `total` samples were recorded and the newest `window`
/// are retained. `back(lag)` returns the sample `lag` steps before the
/// newest, 0 ≤ lag < min(total, window). Reads at t < 0, or before
/// anything was recorded, return `initial`; reads outside the retained
/// window clamp to its oldest or newest sample.
template <class Back>
inline double interpolate_at(double t, double step, std::size_t total,
                             std::size_t window, double initial, Back back) {
  if (total == 0 || t < 0.0) return initial;
  const double pos = t / step;
  const auto lo_idx = static_cast<long long>(std::floor(pos));
  const double frac = pos - static_cast<double>(lo_idx);
  const long long newest = static_cast<long long>(total) - 1;
  const long long oldest = std::max<long long>(
      0, static_cast<long long>(total) - static_cast<long long>(window));
  // t ≥ 0, so lo_idx ≥ 0 and only the window edges need clamping.
  const auto sample = [&](long long k) {
    return back(static_cast<std::size_t>(newest - std::clamp(k, oldest, newest)));
  };
  const double a = sample(lo_idx);
  const double b = sample(lo_idx + 1);
  return a + (b - a) * frac;
}

/// Ring buffer of uniformly spaced samples of a scalar signal.
class DelayHistory {
 public:
  /// @param step     sample spacing in seconds (solver step), > 0.
  /// @param horizon  maximum lookback in seconds (largest delay), ≥ 0.
  /// @param initial  value reported for all t ≤ 0 (pre-history).
  DelayHistory(double step, double horizon, double initial);

  /// Append the sample for the next grid time (t = count()·step for the
  /// first push at t = 0, etc.).
  void push(double value) {
    ring_[head_] = value;
    if (++head_ == ring_.size()) head_ = 0;
    ++total_;
  }

  /// Latest pushed value (the initial value if nothing was pushed).
  double latest() const { return total_ == 0 ? initial_ : back(0); }

  /// Time of the most recent sample (−step if nothing was pushed yet).
  double now() const {
    return (static_cast<double>(total_) - 1.0) * step_;
  }

  /// Linearly interpolated read at absolute time t. Clamped: t before the
  /// recorded window returns the oldest retained sample (or the initial
  /// value), t beyond now() returns latest().
  double at(double t) const {
    return interpolate_at(t, step_, total_, ring_.size(), initial_,
                          [this](std::size_t lag) { return back(lag); });
  }

  /// Number of samples pushed so far.
  std::size_t count() const { return total_; }

  /// Maximum lookback supported.
  double horizon() const {
    return static_cast<double>(ring_.size() - 2) * step_;
  }

 private:
  /// The sample `lag` pushes before the newest (lag < capacity).
  double back(std::size_t lag) const {
    return ring_[head_ > lag ? head_ - 1 - lag
                             : head_ + ring_.size() - 1 - lag];
  }

  double step_;
  double initial_;
  std::vector<double> ring_;
  std::size_t head_ = 0;   // next write slot
  std::size_t total_ = 0;  // samples pushed; sample k is at time k*step_
};

}  // namespace bbrmodel::ode
