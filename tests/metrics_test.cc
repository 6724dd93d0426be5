// Tests of the metrics layer: aggregates, jitter, normalized series.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/require.h"
#include "common/units.h"
#include "metrics/aggregate.h"
#include "metrics/series.h"
#include "scenario/scenario.h"

namespace bbrmodel::metrics {
namespace {

scenario::ExperimentSpec quick_spec() {
  scenario::ExperimentSpec spec;
  spec.mix = scenario::homogeneous(scenario::CcaKind::kBbrv1, 2);
  spec.capacity_pps = mbps_to_pps(100.0);
  spec.buffer_bdp = 1.0;
  spec.duration_s = 2.0;
  return spec;
}

TEST(Jitter, ConstantSeriesHasZeroJitter) {
  EXPECT_DOUBLE_EQ(jitter_of_series_ms({0.03, 0.03, 0.03}), 0.0);
}

TEST(Jitter, KnownAlternatingSeries) {
  // |Δ| = 1 ms between every pair of consecutive samples.
  EXPECT_NEAR(jitter_of_series_ms({0.030, 0.031, 0.030, 0.031}), 1.0, 1e-9);
}

TEST(Jitter, ShortSeriesIsZero) {
  EXPECT_DOUBLE_EQ(jitter_of_series_ms({}), 0.0);
  EXPECT_DOUBLE_EQ(jitter_of_series_ms({0.5}), 0.0);
}

TEST(EvaluateFluid, ProducesBoundedMetrics) {
  auto setup = scenario::build_fluid(quick_spec());
  setup.sim->run(2.0);
  const auto m = evaluate_fluid(*setup.sim, setup.bottleneck_link);
  EXPECT_GT(m.jain, 0.0);
  EXPECT_LE(m.jain, 1.0);
  EXPECT_GE(m.loss_pct, 0.0);
  EXPECT_LE(m.loss_pct, 100.0);
  EXPECT_GE(m.occupancy_pct, 0.0);
  EXPECT_LE(m.occupancy_pct, 100.0);
  EXPECT_GT(m.utilization_pct, 0.0);
  EXPECT_LE(m.utilization_pct, 100.5);
  EXPECT_GE(m.jitter_ms, 0.0);
  EXPECT_EQ(m.mean_rate_pps.size(), 2u);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(EvaluateFluid, LeanAndFullTraceRunsGiveIdenticalMetrics) {
  // A sweep cell records only the RTT series; a figure records the full
  // trace too. The metrics must not tell them apart, to the bit.
  auto spec = quick_spec();
  spec.mix = scenario::half_half(scenario::CcaKind::kBbrv1,
                                 scenario::CcaKind::kCubic, 4);
  spec.duration_s = 1.0;
  auto lean = scenario::build_fluid(spec);
  auto full = scenario::build_fluid(spec, core::Recording::kFullTrace);
  lean.sim->run(spec.duration_s);
  full.sim->run(spec.duration_s);
  ASSERT_THROW(lean.sim->trace(), PreconditionError);
  ASSERT_FALSE(full.sim->trace().empty());
  const auto a = evaluate_fluid(*lean.sim, lean.bottleneck_link);
  const auto b = evaluate_fluid(*full.sim, full.bottleneck_link);
  EXPECT_GT(a.loss_pct, 0.0);  // a lossy cell
  EXPECT_GT(a.jitter_ms, 0.0);
  EXPECT_EQ(bits(a.jain), bits(b.jain));
  EXPECT_EQ(bits(a.loss_pct), bits(b.loss_pct));
  EXPECT_EQ(bits(a.occupancy_pct), bits(b.occupancy_pct));
  EXPECT_EQ(bits(a.utilization_pct), bits(b.utilization_pct));
  EXPECT_EQ(bits(a.jitter_ms), bits(b.jitter_ms));
  ASSERT_EQ(a.mean_rate_pps.size(), b.mean_rate_pps.size());
  for (std::size_t i = 0; i < a.mean_rate_pps.size(); ++i) {
    EXPECT_EQ(bits(a.mean_rate_pps[i]), bits(b.mean_rate_pps[i])) << i;
  }
  EXPECT_EQ(a.aux, b.aux);
}

TEST(EvaluateFluid, RequiresARun) {
  auto setup = scenario::build_fluid(quick_spec());
  EXPECT_THROW(evaluate_fluid(*setup.sim, setup.bottleneck_link),
               PreconditionError);
}

TEST(Series, RatePercentNormalization) {
  auto setup = scenario::build_fluid(quick_spec(), core::Recording::kFullTrace);
  setup.sim->run(1.0);
  const double cap = mbps_to_pps(100.0);
  const auto s = rate_percent(setup.sim->trace(), 0, cap);
  ASSERT_FALSE(s.values.empty());
  ASSERT_EQ(s.values.size(), setup.sim->trace().size());
  // Consistency: series value equals the raw trace value normalized.
  const auto& sample = setup.sim->trace().samples[10];
  EXPECT_NEAR(s.values[10], 100.0 * sample.agents[0].rate_pps / cap, 1e-9);
}

TEST(Series, QueueLossRttCwndExtraction) {
  auto setup = scenario::build_fluid(quick_spec(), core::Recording::kFullTrace);
  setup.sim->run(1.0);
  const auto& trace = setup.sim->trace();
  const auto& topo = setup.sim->topology();
  const double buffer = topo.link(setup.bottleneck_link).buffer_pkts;
  const double prop = topo.path_delays(0).rtt_prop_s;
  const double bdp = setup.bottleneck_bdp_pkts;

  const auto q = queue_percent(trace, setup.bottleneck_link, buffer);
  const auto l = loss_percent(trace, setup.bottleneck_link);
  const auto r = rtt_excess_percent(trace, 0, prop);
  const auto w = cwnd_percent(trace, 0, bdp);
  const auto v = inflight_percent(trace, 0, bdp);
  const auto hi = inflight_hi_percent(trace, 0, bdp);
  const auto d = delivery_percent(trace, 0, mbps_to_pps(100.0));
  const auto b = btl_estimate_percent(trace, 0, mbps_to_pps(100.0));
  const auto mx = max_measurement_percent(trace, 0, mbps_to_pps(100.0));

  for (std::size_t k = 0; k < trace.size(); ++k) {
    EXPECT_GE(q.values[k], 0.0);
    EXPECT_LE(q.values[k], 100.01);
    EXPECT_GE(l.values[k], 0.0);
    EXPECT_LE(l.values[k], 100.0);
    EXPECT_GE(r.values[k], -1e-6);  // RTT never below propagation
    EXPECT_GE(w.values[k], 0.0);
    EXPECT_GE(v.values[k], 0.0);
    EXPECT_GE(hi.values[k], 0.0);
    EXPECT_GE(d.values[k], 0.0);
    EXPECT_GE(b.values[k], 0.0);
    EXPECT_GE(mx.values[k], 0.0);
  }
  EXPECT_EQ(trace_times(trace).size(), trace.size());
}

TEST(Series, DownsampleAverages) {
  const auto out = downsample({1.0, 3.0, 5.0, 7.0, 9.0}, 2);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 6.0);
  EXPECT_DOUBLE_EQ(out[2], 9.0);
}

TEST(Series, RejectsBadArguments) {
  core::FluidTrace empty;
  EXPECT_THROW(rate_percent(empty, 0, 0.0), PreconditionError);
  EXPECT_THROW(downsample({1.0}, 0), PreconditionError);
}

TEST(ModelVsExperiment, MetricsComparableOnSameScenario) {
  // The two simulators report the same struct on the same scenario; both
  // must land in plausible, comparable ranges (the validation premise).
  auto spec = quick_spec();
  spec.duration_s = 3.0;
  const auto model = scenario::run_fluid(spec);
  const auto experiment = scenario::run_packet(spec);
  EXPECT_GT(model.utilization_pct, 85.0);
  EXPECT_GT(experiment.utilization_pct, 85.0);
  EXPECT_GT(model.occupancy_pct, 20.0);   // BBRv1 fills drop-tail buffers
  EXPECT_GT(experiment.occupancy_pct, 20.0);
}

}  // namespace
}  // namespace bbrmodel::metrics
