// Unit tests for the loss-based fluid CCAs (paper Appendix B).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cca/cubic.h"
#include "cca/reno.h"
#include "common/require.h"
#include "core/fluid_config.h"

namespace bbrmodel::cca {
namespace {

core::FluidConfig default_config() { return core::FluidConfig{}; }

core::AgentContext make_ctx(const core::FluidConfig* cfg) {
  core::AgentContext ctx;
  ctx.id = 0;
  ctx.num_agents = 1;
  ctx.delays.rtt_prop_s = 0.03;
  ctx.bottleneck_capacity_pps = 8333.0;
  ctx.config = cfg;
  return ctx;
}

core::AgentInputs make_inputs(double rtt, double loss, double rate_delayed) {
  core::AgentInputs in;
  in.rtt = rtt;
  in.rtt_delayed = rtt;
  in.loss_delayed = loss;
  in.rate_delayed = rate_delayed;
  in.delivery_rate = rate_delayed;
  return in;
}

TEST(RenoFluid, RateIsWindowOverRtt) {
  const auto cfg = default_config();
  RenoFluid reno(10.0);
  reno.init(make_ctx(&cfg));
  const auto in = make_inputs(0.05, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(reno.sending_rate(in), 10.0 / 0.05);
}

TEST(RenoFluid, SlowStartDoublesPerRtt) {
  const auto cfg = default_config();
  RenoFluid reno(10.0);
  reno.init(make_ctx(&cfg));
  EXPECT_TRUE(reno.in_slow_start());
  const double rtt = 0.03;
  const double h = 1e-4;
  // One RTT of lossless growth at rate w/τ: ẇ = x → w ≈ w0·e ≈ doubling-ish.
  for (int i = 0; i < 300; ++i) {
    const double rate = reno.window_pkts() / rtt;
    reno.advance(make_inputs(rtt, 0.0, rate), rate, h);
  }
  EXPECT_NEAR(reno.window_pkts(), 10.0 * std::exp(1.0), 0.5);
}

TEST(RenoFluid, ExitsSlowStartAndHalvesOnLoss) {
  const auto cfg = default_config();
  RenoFluid reno(100.0);
  reno.init(make_ctx(&cfg));
  const double rate = 100.0 / 0.03;
  reno.advance(make_inputs(0.03, 0.05, rate), rate, 1e-4);
  EXPECT_FALSE(reno.in_slow_start());
  EXPECT_NEAR(reno.window_pkts(), 50.0, 0.5);
}

TEST(RenoFluid, CongestionAvoidanceAdditiveGrowth) {
  core::FluidConfig cfg;
  cfg.loss_based_slow_start = false;  // start directly in CA
  RenoFluid reno(20.0);
  reno.init(make_ctx(&cfg));
  EXPECT_FALSE(reno.in_slow_start());
  const double rtt = 0.03;
  const double h = 1e-4;
  // Eq. (39) without loss: ẇ = x/w = 1/τ → +1 packet per RTT.
  for (int i = 0; i < 300; ++i) {  // one RTT
    const double rate = reno.window_pkts() / rtt;
    reno.advance(make_inputs(rtt, 0.0, rate), rate, h);
  }
  EXPECT_NEAR(reno.window_pkts(), 21.0, 0.05);
}

TEST(RenoFluid, MultiplicativeDecreaseUnderSustainedLoss) {
  core::FluidConfig cfg;
  cfg.loss_based_slow_start = false;
  RenoFluid reno(100.0);
  reno.init(make_ctx(&cfg));
  const double rtt = 0.03;
  const double h = 1e-4;
  // Sustained loss for one RTT with the per-RTT event cap halves the window
  // roughly once (not to oblivion).
  for (int i = 0; i < 300; ++i) {
    const double rate = reno.window_pkts() / rtt;
    reno.advance(make_inputs(rtt, 0.5, rate), rate, h);
  }
  EXPECT_GT(reno.window_pkts(), 40.0);
  EXPECT_LT(reno.window_pkts(), 75.0);
}

TEST(RenoFluid, LiteralEquationCollapsesWithoutCap) {
  core::FluidConfig cfg;
  cfg.loss_based_slow_start = false;
  cfg.per_rtt_loss_events = false;  // the paper's literal Eq. (39)
  RenoFluid reno(100.0);
  reno.init(make_ctx(&cfg));
  const double rtt = 0.03;
  for (int i = 0; i < 300; ++i) {
    const double rate = reno.window_pkts() / rtt;
    reno.advance(make_inputs(rtt, 0.5, rate), rate, 1e-4);
  }
  // One RTT of burst loss already destroys ~96 % of the window (vs ~½ with
  // the per-RTT cap above) — the collapse the cap exists to prevent.
  EXPECT_LT(reno.window_pkts(), 5.0);
}

TEST(RenoFluid, WindowFloorsAtOneSegment) {
  core::FluidConfig cfg;
  cfg.loss_based_slow_start = false;
  cfg.per_rtt_loss_events = false;
  RenoFluid reno(2.0);
  reno.init(make_ctx(&cfg));
  for (int i = 0; i < 1000; ++i) {
    reno.advance(make_inputs(0.03, 1.0, 1e5), 1e5, 1e-3);
  }
  EXPECT_GE(reno.window_pkts(), 1.0);
}

TEST(RenoFluid, RejectsTinyInitialWindow) {
  EXPECT_THROW(RenoFluid(0.5), PreconditionError);
}

TEST(CubicWindowFunction, PostLossAndRecoveryPoints) {
  const double w_max = 100.0;
  // At s = 0 the window is β·w_max (the multiplicative decrease).
  EXPECT_NEAR(cubic_window(0.0, w_max), CubicFluid::kBeta * w_max, 1e-9);
  // At s = K the window returns to w_max.
  const double k = std::cbrt(w_max * (1.0 - CubicFluid::kBeta) /
                             CubicFluid::kC);
  EXPECT_NEAR(cubic_window(k, w_max), w_max, 1e-9);
  // Beyond K, growth is convex (probing).
  EXPECT_GT(cubic_window(k + 1.0, w_max), w_max);
}

TEST(CubicWindowFunction, ConcaveThenConvexShape) {
  const double w_max = 100.0;
  const double k = std::cbrt(w_max * 0.3 / 0.4);
  const double early_slope = cubic_window(0.1, w_max) - cubic_window(0.0, w_max);
  const double plateau_slope =
      cubic_window(k + 0.05, w_max) - cubic_window(k - 0.05, w_max);
  EXPECT_GT(early_slope, plateau_slope);  // fast recovery, flat plateau
}

TEST(CubicFluid, SlowStartHandsOverWindowOnLoss) {
  const auto cfg = default_config();
  CubicFluid cubic(10.0);
  cubic.init(make_ctx(&cfg));
  EXPECT_TRUE(cubic.in_slow_start());
  const double rate = 80.0 / 0.03;
  // Grow a bit, then a loss signal arrives.
  for (int i = 0; i < 100; ++i) {
    cubic.advance(make_inputs(0.03, 0.0, rate), rate, 1e-4);
  }
  const double w_before = cubic.window_pkts();
  cubic.advance(make_inputs(0.03, 0.05, rate), rate, 1e-4);
  EXPECT_FALSE(cubic.in_slow_start());
  EXPECT_NEAR(cubic.window_at_loss_pkts(), w_before, 1.0);
  // Window right after the loss ≈ β·w_max.
  EXPECT_NEAR(cubic.window_pkts(), CubicFluid::kBeta * w_before,
              0.05 * w_before);
}

TEST(CubicFluid, TimeSinceLossGrowsAtUnitRate) {
  core::FluidConfig cfg;
  cfg.loss_based_slow_start = false;
  CubicFluid cubic(10.0);
  cubic.init(make_ctx(&cfg));
  for (int i = 0; i < 1000; ++i) {
    cubic.advance(make_inputs(0.03, 0.0, 300.0), 300.0, 1e-3);
  }
  EXPECT_NEAR(cubic.time_since_loss_s(), 1.0, 1e-6);
}

TEST(CubicFluid, LossResetsEpochUnderCappedIntensity) {
  core::FluidConfig cfg;
  cfg.loss_based_slow_start = false;
  CubicFluid cubic(50.0);
  cubic.init(make_ctx(&cfg));
  // Advance two seconds without loss, then sustain loss for half an RTT.
  for (int i = 0; i < 2000; ++i) {
    cubic.advance(make_inputs(0.03, 0.0, 1000.0), 1000.0, 1e-3);
  }
  const double s_before = cubic.time_since_loss_s();
  EXPECT_GT(s_before, 1.5);
  // A full RTT of loss at the capped intensity (1/τ) decays s by e⁻¹.
  for (int i = 0; i < 300; ++i) {
    cubic.advance(make_inputs(0.03, 0.3, 1000.0), 1000.0, 1e-4);
  }
  EXPECT_LT(cubic.time_since_loss_s(), s_before / 2.0);
}

TEST(CubicFluid, WindowStaysPositive) {
  core::FluidConfig cfg;
  cfg.loss_based_slow_start = false;
  CubicFluid cubic(10.0);
  cubic.init(make_ctx(&cfg));
  for (int i = 0; i < 2000; ++i) {
    cubic.advance(make_inputs(0.03, 0.8, 5000.0), 5000.0, 1e-3);
  }
  EXPECT_GE(cubic.window_pkts(), 1.0);
}

TEST(CubicFluid, WindowIsTheGrowthFunctionAfterEveryStep) {
  // window_pkts() reuses K = ∛(w_max·(1 − β)/c) until w_max changes. After
  // every step it must still equal the growth function of the current
  // (s, w_max), bit for bit: through slow start, the hand-over, a loss
  // epoch (w_max moves every step) and loss-free growth (it stays put).
  const auto cfg = default_config();
  CubicFluid cubic(10.0);
  cubic.init(make_ctx(&cfg));
  const double rtt = 0.03;
  const double h = 1e-4;
  int slow_start_steps = 0;
  int w_max_moves = 0;
  for (int step = 0; step < 4000; ++step) {
    const double loss = step >= 1000 && step < 1300 ? 0.05 : 0.0;
    const double rate = cubic.window_pkts() / rtt;
    const double w_max_before = cubic.window_at_loss_pkts();
    cubic.advance(make_inputs(rtt, loss, rate), rate, h);
    if (cubic.in_slow_start()) {
      ++slow_start_steps;
      continue;
    }
    if (cubic.window_at_loss_pkts() != w_max_before) ++w_max_moves;
    ASSERT_EQ(cubic.window_pkts(),
              std::max(1.0, cubic_window(cubic.time_since_loss_s(),
                                         cubic.window_at_loss_pkts())))
        << "step " << step;
  }
  EXPECT_EQ(slow_start_steps, 1000);
  EXPECT_GT(w_max_moves, 100);  // the loss epoch moved w_max
  EXPECT_GT(cubic.time_since_loss_s(), 0.2);  // then it grew loss-free
}

TEST(CubicFluid, TelemetryReportsWindow) {
  const auto cfg = default_config();
  CubicFluid cubic(12.0);
  cubic.init(make_ctx(&cfg));
  EXPECT_DOUBLE_EQ(cubic.telemetry().cwnd_pkts, cubic.window_pkts());
}

TEST(CubicFluid, RejectsTinyInitialWindow) {
  EXPECT_THROW(CubicFluid(0.0), PreconditionError);
}

}  // namespace
}  // namespace bbrmodel::cca
