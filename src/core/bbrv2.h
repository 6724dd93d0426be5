// Fluid model of BBRv2 (paper §3.4).
//
// On top of the shared BBR skeleton (min-RTT estimate, ProbeRTT mode,
// probing-period clock, delivery-rate maximum, inflight volume), BBRv2 adds:
//   probe_down_    m^dwn_i — inflight-reducing mode (Eq. 26)
//   cruising_      m^crs_i — cruising mode (Eq. 27)
//   inflight_hi_   w^hi_i  — long-term inflight bound (Eq. 29)
//   inflight_lo_   w^lo_i  — short-term inflight bound (Eq. 30)
//   prev_max_      x^max_i(t − T^pbw) — last period's delivery maximum (Eq. 28)
//
// Probing periods last min(63·τ^min, 2 + i/N) seconds (Eq. 24 — the paper's
// deterministic stand-in for BBRv2's randomized 2–3 s wall-clock gate), the
// pacing rate follows Eq. (25), the ProbeBW window Eq. (31), and the
// ProbeRTT window is half the estimated BDP (Eq. 32).
#pragma once

#include <limits>

#include "core/bbrv1.h"  // BbrInit
#include "core/fluid_cca.h"

namespace bbrmodel::core {

/// BBRv2 fluid model.
class Bbrv2Fluid : public FluidCca {
 public:
  explicit Bbrv2Fluid(BbrInit init = {});

  void init(const AgentContext& ctx) override;
  double sending_rate(const AgentInputs& in) const override;
  void advance(const AgentInputs& in, double current_rate, double h) override;
  CcaTelemetry telemetry() const override;
  std::string name() const override { return "BBRv2"; }

  // Introspection for tests.
  double btl_estimate_pps() const { return btl_estimate_; }
  double max_delivery_pps() const { return max_delivery_; }
  double min_rtt_s() const { return min_rtt_; }
  double inflight_pkts() const { return inflight_; }
  double inflight_hi_pkts() const { return inflight_hi_; }
  double inflight_lo_pkts() const { return inflight_lo_; }
  bool in_probe_rtt() const { return probe_rtt_mode_; }
  bool in_probe_down() const { return probe_down_; }
  bool cruising() const { return cruising_; }
  double cycle_clock_s() const { return cycle_clock_; }
  double period_s() const;  ///< T^pbw_i (Eq. 24)

  /// Lifecycle with the startup extension (FluidConfig::model_startup).
  enum class Phase { kStartup, kDrain, kProbeBw };
  Phase phase() const { return phase_; }

 private:
  double bdp_estimate_pkts() const { return btl_estimate_ * min_rtt_; }
  /// w⁻ = min(ŵ, (1 − headroom)·w^hi): the drain target / cruise bound.
  double drain_target_pkts() const;
  /// Eq. (31): min(2·ŵ, cruising ? w^lo : w^hi).
  double probe_bw_cwnd_pkts() const;
  /// Eq. (25).
  double pacing_rate() const;
  /// STARTUP/DRAIN progression (extension; DESIGN.md §8). Exiting STARTUP
  /// on excessive loss records w^hi = v — the Insight-5 mechanism.
  void advance_startup(const AgentInputs& in, double h);
  /// σ(p − 2 %), the excessive-loss sigmoid of Eqs. (26) and (29), for the
  /// delayed path loss p. Both evaluate it on the same argument, which
  /// mostly repeats from step to step (p = 0), so it is memoized on it.
  double loss_sigmoid(double loss_delayed);

  BbrInit init_;
  AgentContext ctx_;

  double min_rtt_ = 0.0;
  double probe_rtt_timer_ = 0.0;
  bool probe_rtt_mode_ = false;
  double cycle_clock_ = 0.0;
  double max_delivery_ = 0.0;
  double prev_max_ = 0.0;
  double btl_estimate_ = 0.0;
  double inflight_ = 0.0;
  bool probe_down_ = false;
  bool cruising_ = false;
  double inflight_hi_ = 0.0;
  double inflight_lo_ = 0.0;

  // STARTUP extension state.
  Phase phase_ = Phase::kProbeBw;
  double full_bw_ = 0.0;
  int full_bw_count_ = 0;
  double round_clock_ = 0.0;

  // One-entry memo of loss_sigmoid. The empty key is NaN, which never
  // compares equal, so a NaN argument is recomputed too.
  double loss_sigmoid_arg_ = std::numeric_limits<double>::quiet_NaN();
  double loss_sigmoid_ = 0.0;
};

}  // namespace bbrmodel::core
