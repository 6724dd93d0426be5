#include "core/bbrv2.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"
#include "ode/smooth.h"

namespace bbrmodel::core {

Bbrv2Fluid::Bbrv2Fluid(BbrInit init) : init_(init) {}

void Bbrv2Fluid::init(const AgentContext& ctx) {
  BBRM_REQUIRE_MSG(ctx.config != nullptr, "agent context needs a config");
  BBRM_REQUIRE_MSG(ctx.bottleneck_capacity_pps > 0.0,
                   "bottleneck capacity must be positive");
  ctx_ = ctx;
  min_rtt_ = ctx.delays.rtt_prop_s;
  if (ctx.config->model_startup) {
    phase_ = Phase::kStartup;
    btl_estimate_ = init_.btl_estimate_pps > 0.0
                        ? init_.btl_estimate_pps
                        : ctx.config->startup_initial_window_pkts / min_rtt_;
  } else {
    phase_ = Phase::kProbeBw;
    btl_estimate_ = init_.btl_estimate_pps > 0.0
                        ? init_.btl_estimate_pps
                        : ctx.bottleneck_capacity_pps /
                              static_cast<double>(ctx.num_agents);
  }
  full_bw_ = 0.0;
  full_bw_count_ = 0;
  round_clock_ = 0.0;
  loss_sigmoid_arg_ = std::numeric_limits<double>::quiet_NaN();
  max_delivery_ = 0.0;
  prev_max_ = btl_estimate_;
  inflight_ = std::max(0.0, init_.inflight_pkts);
  // Insight 5 knob: a distorted startup estimate of inflight_hi is modelled
  // through this initial condition; with model_startup the bound starts
  // unset (only a startup loss would set it, as in the implementation).
  if (init_.inflight_hi_pkts > 0.0) {
    inflight_hi_ = init_.inflight_hi_pkts;
  } else if (ctx.config->model_startup) {
    inflight_hi_ = 1e12;  // unset
  } else {
    inflight_hi_ = 1.25 * bdp_estimate_pkts();
  }
  inflight_lo_ = drain_target_pkts();
}

double Bbrv2Fluid::period_s() const {
  // Eq. (24): T^pbw = min(63·τ^min, 2 + i/N).
  const double wall = 2.0 + static_cast<double>(ctx_.id) /
                                static_cast<double>(ctx_.num_agents);
  return std::min(63.0 * min_rtt_, wall);
}

double Bbrv2Fluid::drain_target_pkts() const {
  const double headroom = ctx_.config ? ctx_.config->bbr2_headroom : 0.15;
  return std::min(bdp_estimate_pkts(), (1.0 - headroom) * inflight_hi_);
}

double Bbrv2Fluid::probe_bw_cwnd_pkts() const {
  // Eq. (31): w^pbw = min(2·ŵ, (1 − m^crs)·w^hi + m^crs·w^lo).
  const double bound = cruising_ ? inflight_lo_ : inflight_hi_;
  return std::min(2.0 * bdp_estimate_pkts(), bound);
}

double Bbrv2Fluid::pacing_rate() const {
  // Eq. (25): x^pcg = x^btl·(1 + 1/4·σ(t^pbw − τ^min)·(1 − m^dwn) − 1/4·m^dwn).
  const double k = ctx_.config->k_time;
  const double past_refill = ode::sigmoid(cycle_clock_ - min_rtt_, k);
  const double up = probe_down_ ? 0.0 : past_refill;
  const double down = probe_down_ ? 1.0 : 0.0;
  return btl_estimate_ * (1.0 + 0.25 * up - 0.25 * down);
}

double Bbrv2Fluid::sending_rate(const AgentInputs& in) const {
  BBRM_REQUIRE_MSG(in.rtt > 0.0, "RTT must be positive");
  if (probe_rtt_mode_) {
    // Eq. (32): ProbeRTT window is half the estimated BDP.
    return 0.5 * bdp_estimate_pkts() / in.rtt;
  }
  const double gain = ctx_.config->startup_gain;
  if (phase_ == Phase::kStartup) {
    return std::min(gain * bdp_estimate_pkts() / in.rtt,
                    gain * btl_estimate_);
  }
  if (phase_ == Phase::kDrain) {
    return std::min(2.0 * bdp_estimate_pkts() / in.rtt, btl_estimate_ / gain);
  }
  return std::min(probe_bw_cwnd_pkts() / in.rtt, pacing_rate());
}

void Bbrv2Fluid::advance(const AgentInputs& in, double current_rate,
                         double h) {
  const FluidConfig& cfg = *ctx_.config;

  // --- shared BBR skeleton: min RTT and ProbeRTT ----------------------------
  if (in.rtt_delayed < min_rtt_ - 1e-9) probe_rtt_timer_ = 0.0;
  min_rtt_ = std::min(min_rtt_, in.rtt_delayed);

  probe_rtt_timer_ += h;
  const double deadline = probe_rtt_mode_ ? cfg.probe_rtt_duration_s
                                          : cfg.probe_rtt_interval_s;
  if (probe_rtt_timer_ >= deadline) {
    probe_rtt_mode_ = !probe_rtt_mode_;
    probe_rtt_timer_ = 0.0;
  }

  if (phase_ != Phase::kProbeBw) {
    if (!probe_rtt_mode_) {
      // Inflight first: the STARTUP loss exit snapshots it into w^hi.
      if (cfg.literal_eq19) {
        inflight_ = std::max(
            0.0, inflight_ + h * (current_rate - in.delivery_rate));
      } else {
        inflight_ = in.inflight_window_pkts;
      }
      advance_startup(in, h);
    }
    return;
  }

  if (!probe_rtt_mode_) {
    cycle_clock_ += h;
    const double measurement =
        cfg.literal_eq18 ? current_rate : in.delivery_rate;
    max_delivery_ = std::max(max_delivery_, measurement);

    // Period rollover (Eqs. 16, 24, 27): cruise ends, a fresh REFILL starts.
    if (cycle_clock_ >= period_s()) {
      prev_max_ = max_delivery_;
      max_delivery_ = 0.0;
      cycle_clock_ = 0.0;
      cruising_ = false;
      probe_down_ = false;
    }

    const double bdp = bdp_estimate_pkts();

    // m^dwn activation (Eq. 26): past the refill RTT, probing up until the
    // inflight reaches 5/4·ŵ or loss exceeds the 2 % threshold.
    if (!cruising_ && !probe_down_ && cycle_clock_ > min_rtt_) {
      const double trigger =
          std::min(1.0, ode::sigmoid(inflight_ - 1.25 * bdp, cfg.k_vol) +
                            loss_sigmoid(in.loss_delayed));
      if (trigger > 0.5) probe_down_ = true;
    }

    if (probe_down_) {
      // Eq. (28): adopt the max delivery rate of the last two periods.
      btl_estimate_ = std::max(max_delivery_, prev_max_);
      // Eq. (26), second term: leave m^dwn once drained to w⁻; enter cruise
      // (Eq. 27).
      if (ode::sigmoid(drain_target_pkts() - inflight_, cfg.k_vol) > 0.5) {
        probe_down_ = false;
        cruising_ = true;
      }
    }

    // w^hi dynamics (Eq. 29): exponential growth while the bound binds during
    // the aggressive phase, multiplicative decrease on excessive loss.
    const double growth_gate =
        (cruising_ ? 0.0 : 1.0) *
        ode::sigmoid(cycle_clock_ - min_rtt_, cfg.k_time) *
        ode::sigmoid(inflight_ - inflight_hi_, cfg.k_vol);
    // The gate is exactly 0 while cruising or once the inflight sigmoid
    // saturates. 2^{t/τ} is then finite (its exponent is NaN only when the
    // gate is), so the product is gate·g with or without the exp2 call.
    double growth = growth_gate * cfg.inflight_hi_growth_pps;
    if (growth_gate != 0.0) {
      const double exponent =
          std::min(cycle_clock_ / std::max(min_rtt_, 1e-6), 30.0);
      growth = growth_gate * std::exp2(exponent) * cfg.inflight_hi_growth_pps;
    }
    const double decrease = loss_sigmoid(in.loss_delayed) * cfg.bbr2_beta /
                            std::max(min_rtt_, 1e-6) * inflight_hi_;
    inflight_hi_ = std::max(1.0, inflight_hi_ + h * (growth - decrease));

    // w^lo dynamics (Eq. 30): pinned to w⁻ outside cruise ("unset"); in
    // cruise, multiplicative decrease per RTT while loss occurs.
    if (!cruising_) {
      inflight_lo_ = drain_target_pkts();
    } else {
      // σ(p − ε) as a genuine "loss occurred" indicator (DESIGN.md §5.4):
      // the K→∞ limit, otherwise w_lo decays spuriously at p = 0.
      const double loss_ind =
          ode::step_indicator(in.loss_delayed - cfg.loss_indicator_eps);
      inflight_lo_ = std::max(
          1.0, inflight_lo_ - h * loss_ind * cfg.bbr2_beta /
                                  std::max(min_rtt_, 1e-6) * inflight_lo_);
    }
  }

  // Inflight volume (Eq. 19 / DESIGN.md §5.12).
  if (cfg.literal_eq19) {
    inflight_ =
        std::max(0.0, inflight_ + h * (current_rate - in.delivery_rate));
  } else {
    inflight_ = in.inflight_window_pkts;
  }
}

void Bbrv2Fluid::advance_startup(const AgentInputs& in, double h) {
  const FluidConfig& cfg = *ctx_.config;
  if (phase_ == Phase::kStartup) {
    max_delivery_ = std::max(max_delivery_, in.delivery_rate);
    btl_estimate_ = std::max(btl_estimate_, max_delivery_);
    // v2 change: excessive loss also ends STARTUP and *sets* the long-term
    // bound from the observed inflight (the Insight-5 mechanism: deep
    // buffers never reach this branch, leaving w^hi unset).
    if (in.loss_delayed > cfg.bbr2_loss_thresh) {
      inflight_hi_ = std::max(4.0, inflight_);
      phase_ = Phase::kDrain;
      return;
    }
    round_clock_ += h;
    if (round_clock_ >= min_rtt_) {
      round_clock_ = 0.0;
      if (btl_estimate_ > 1.25 * full_bw_) {
        full_bw_ = btl_estimate_;
        full_bw_count_ = 0;
      } else if (++full_bw_count_ >= cfg.startup_full_bw_rounds) {
        phase_ = Phase::kDrain;
      }
    }
    return;
  }
  // DRAIN → cruise entry of the first ProbeBW period.
  if (inflight_ <= bdp_estimate_pkts() + 1.0) {
    phase_ = Phase::kProbeBw;
    cycle_clock_ = 0.0;
    max_delivery_ = 0.0;
    prev_max_ = btl_estimate_;
    cruising_ = true;  // the pipe is freshly drained
    inflight_lo_ = drain_target_pkts();
  }
}

double Bbrv2Fluid::loss_sigmoid(double loss_delayed) {
  const double arg = loss_delayed - ctx_.config->bbr2_loss_thresh;
  if (!(arg == loss_sigmoid_arg_)) {
    loss_sigmoid_arg_ = arg;
    loss_sigmoid_ = ode::sigmoid(arg, ctx_.config->k_prob);
  }
  return loss_sigmoid_;
}

CcaTelemetry Bbrv2Fluid::telemetry() const {
  CcaTelemetry t;
  t.btl_estimate_pps = btl_estimate_;
  t.max_measurement_pps = max_delivery_;
  t.cwnd_pkts = probe_rtt_mode_ ? 0.5 * bdp_estimate_pkts()
                                : probe_bw_cwnd_pkts();
  t.inflight_pkts = inflight_;
  t.min_rtt_estimate_s = min_rtt_;
  t.inflight_hi_pkts = inflight_hi_;
  t.inflight_lo_pkts = inflight_lo_;
  t.probe_rtt = probe_rtt_mode_;
  t.probe_down = probe_down_;
  t.cruising = cruising_;
  return t;
}

}  // namespace bbrmodel::core
