// Fluid model of TCP CUBIC (paper Appendix B.2, following Vardoyan et al.).
//
// CUBIC cannot be written as a single window ODE; instead two instrumental
// variables are tracked (Eqs. 40a/40b):
//   ṡ      = 1 − s·x(t−d^p)·p(t−d^p)          (time since last loss)
//   ẇ_max  = (w − w_max)·x(t−d^p)·p(t−d^p)    (window at the moment of loss)
// and the window follows the CUBIC growth function (Eq. 41, RFC 8312):
//   w(s)   = c·(s − K)³ + w_max,   K = ∛(w_max·(1 − β)/c),
// with c = 0.4, β = 0.7 (multiplicative-decrease factor). The paper's Eq. 41
// writes K = ∛(w_max·b/c) with b = 0.7; RFC 8312 defines the cube root over
// w_max·(1 − β_cubic)/C so that the post-loss window is β·w_max — we follow
// the RFC semantics (DESIGN.md §5).
#pragma once

#include "core/fluid_cca.h"

namespace bbrmodel::cca {

/// CUBIC fluid model.
class CubicFluid : public core::FluidCca {
 public:
  /// @param initial_window_pkts w(0); w_max(0) is derived as w(0)/β so the
  ///        cubic function starts at w(0) with s = 0.
  explicit CubicFluid(double initial_window_pkts = 10.0);

  void init(const core::AgentContext& ctx) override;
  double sending_rate(const core::AgentInputs& in) const override;
  void advance(const core::AgentInputs& in, double current_rate,
               double h) override;
  core::CcaTelemetry telemetry() const override;
  std::string name() const override { return "CUBIC"; }

  /// max(1, w(s)) past slow start: bit for bit
  /// max(1, cubic_window(time_since_loss_s(), window_at_loss_pkts())).
  double window_pkts() const;
  double time_since_loss_s() const { return since_loss_; }
  double window_at_loss_pkts() const { return window_at_loss_; }
  bool in_slow_start() const { return slow_start_; }

  /// RFC 8312 constants.
  static constexpr double kC = 0.4;
  static constexpr double kBeta = 0.7;

 private:
  /// Sets w^max and, when its value changes, the K that goes with it.
  void set_window_at_loss(double w);

  double initial_window_;
  double since_loss_ = 0.0;      // s_i
  double window_at_loss_ = 1.0;  // w^max_i
  double k_ = 0.0;               // K of window_at_loss_ (Eq. 41)
  bool slow_start_ = true;
  double ss_window_ = 1.0;       // window during fluid slow start
  core::AgentContext ctx_;
};

/// The CUBIC window-growth function w(s) (Eq. 41 with RFC 8312 semantics).
double cubic_window(double since_loss_s, double window_at_loss_pkts);

}  // namespace bbrmodel::cca
