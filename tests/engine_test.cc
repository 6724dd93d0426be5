// Tests of the coupled fluid-simulation engine (network ⟷ CCA dynamics).
#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "common/require.h"
#include "common/units.h"
#include "metrics/aggregate.h"
#include "net/topology.h"
#include "scenario/scenario.h"

namespace bbrmodel {
namespace {

using scenario::CcaKind;
using scenario::ExperimentSpec;

// Agents hold a pointer to their simulation's config, so a moved or copied
// simulation would leave them reading the old object's.
static_assert(!std::is_move_constructible_v<core::FluidSimulation>);
static_assert(!std::is_copy_constructible_v<core::FluidSimulation>);

ExperimentSpec base_spec(CcaKind kind, std::size_t n, double buffer_bdp,
                         net::Discipline disc = net::Discipline::kDropTail) {
  ExperimentSpec spec;
  spec.mix = scenario::homogeneous(kind, n);
  spec.capacity_pps = mbps_to_pps(100.0);
  spec.buffer_bdp = buffer_bdp;
  spec.discipline = disc;
  spec.duration_s = 5.0;
  return spec;
}

TEST(Engine, RequiresMatchingAgentsAndPaths) {
  auto dumbbell = net::make_dumbbell([] {
    net::DumbbellSpec s;
    s.num_senders = 2;
    s.bottleneck_capacity_pps = 1000.0;
    s.bottleneck_delay_s = 0.01;
    s.access_delays_s = {0.005, 0.006};
    return s;
  }());
  std::vector<std::unique_ptr<core::FluidCca>> one;
  one.push_back(scenario::make_fluid_cca(CcaKind::kReno));
  EXPECT_THROW(core::FluidSimulation(std::move(dumbbell.topology),
                                     std::move(one), {}),
               PreconditionError);
}

TEST(Engine, RunZeroIsNoOp) {
  auto setup = scenario::build_fluid(base_spec(CcaKind::kReno, 1, 1.0),
                                     core::Recording::kFullTrace);
  setup.sim->run(0.0);
  EXPECT_DOUBLE_EQ(setup.sim->now(), 0.0);
  EXPECT_TRUE(setup.sim->trace().empty());
  EXPECT_TRUE(setup.sim->rtt_series().rtt_s.empty());
}

TEST(Engine, TraceSampledAtConfiguredInterval) {
  auto spec = base_spec(CcaKind::kReno, 2, 1.0);
  spec.fluid.record_interval_s = 0.01;
  spec.duration_s = 1.0;
  auto setup = scenario::build_fluid(spec, core::Recording::kFullTrace);
  setup.sim->run(1.0);
  const auto& trace = setup.sim->trace();
  EXPECT_NEAR(trace.sample_interval_s, 0.01, 1e-9);
  EXPECT_NEAR(static_cast<double>(trace.size()), 100.0, 2.0);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.samples.front().agents.size(), 2u);
  EXPECT_EQ(trace.samples.front().links.size(),
            setup.sim->topology().num_links());
}

TEST(Engine, LeanRunRecordsOneRttRowPerRecordTick) {
  auto spec = base_spec(CcaKind::kBbrv1, 3, 1.0);
  auto lean = scenario::build_fluid(spec);
  lean.sim->run(0.5);
  EXPECT_THROW(lean.sim->trace(), PreconditionError);
  const core::RttSeries& rtt = lean.sim->rtt_series();
  // 10,000 steps of 50 µs, one record tick every 20: t = 0, 1, ..., 499 ms.
  EXPECT_EQ(rtt.num_agents, 3u);
  EXPECT_EQ(rtt.rows(), 500u);
  EXPECT_EQ(rtt.rtt_s.size(), 3u * 500u);

  // The series is the RTT column of the full trace, row for row.
  auto full = scenario::build_fluid(spec, core::Recording::kFullTrace);
  full.sim->run(0.5);
  const auto& trace = full.sim->trace();
  EXPECT_EQ(rtt.sample_interval_s, trace.sample_interval_s);
  ASSERT_EQ(trace.size(), rtt.rows());
  for (std::size_t k = 0; k < trace.size(); ++k) {
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(rtt.at(k, i), trace.samples[k].agents[i].rtt_s)
          << "row " << k << ", agent " << i;
    }
  }
  EXPECT_EQ(full.sim->rtt_series().rtt_s, rtt.rtt_s);

  // Split runs record the same series as one run.
  auto split = scenario::build_fluid(spec);
  split.sim->run(0.2);
  split.sim->run(0.3);
  EXPECT_EQ(split.sim->rtt_series().rtt_s, rtt.rtt_s);
}

TEST(Engine, SingleBbrv1ConvergesToLinkCapacity) {
  auto setup = scenario::build_fluid(base_spec(CcaKind::kBbrv1, 1, 1.0));
  setup.sim->run(5.0);
  const auto& bbr =
      dynamic_cast<const core::Bbrv1Fluid&>(setup.sim->cca(0));
  EXPECT_NEAR(bbr.btl_estimate_pps(), mbps_to_pps(100.0),
              0.05 * mbps_to_pps(100.0));
  const auto m = metrics::evaluate_fluid(*setup.sim, setup.bottleneck_link);
  EXPECT_GT(m.utilization_pct, 97.0);
}

TEST(Engine, SingleBbrv2ConvergesAndKeepsQueueLow) {
  auto setup = scenario::build_fluid(base_spec(CcaKind::kBbrv2, 1, 1.0));
  setup.sim->run(5.0);
  const auto& bbr =
      dynamic_cast<const core::Bbrv2Fluid&>(setup.sim->cca(0));
  EXPECT_NEAR(bbr.btl_estimate_pps(), mbps_to_pps(100.0),
              0.08 * mbps_to_pps(100.0));
  const auto m = metrics::evaluate_fluid(*setup.sim, setup.bottleneck_link);
  EXPECT_GT(m.utilization_pct, 90.0);
  // BBRv2 single flow: far less queue than BBRv1 (design goal).
  auto v1 = scenario::build_fluid(base_spec(CcaKind::kBbrv1, 1, 1.0));
  v1.sim->run(5.0);
  const auto m1 = metrics::evaluate_fluid(*v1.sim, v1.bottleneck_link);
  EXPECT_LT(m.occupancy_pct, m1.occupancy_pct);
}

TEST(Engine, SingleRenoFillsDeepBufferWithoutLoss) {
  auto setup = scenario::build_fluid(base_spec(CcaKind::kReno, 1, 4.0));
  setup.sim->run(5.0);
  const auto m = metrics::evaluate_fluid(*setup.sim, setup.bottleneck_link);
  EXPECT_GT(m.utilization_pct, 90.0);
  EXPECT_LT(m.loss_pct, 1.0);
}

TEST(Engine, DeliveryRateNearCapacityWithQueue) {
  // With a standing queue the summed delivery rates track the service rate.
  // Per-agent shares are measured at per-agent delayed instants (Eq. 17), so
  // the instantaneous sum can transiently exceed C — but never by much.
  auto setup = scenario::build_fluid(
      base_spec(CcaKind::kBbrv1, 2, 1.0), core::Recording::kFullTrace);
  setup.sim->run(3.0);
  const double cap = mbps_to_pps(100.0);
  for (const auto& s : setup.sim->trace().samples) {
    if (s.links[setup.bottleneck_link].queue_pkts > 1.0) {
      double total_delivery = 0.0;
      for (const auto& a : s.agents) total_delivery += a.delivery_rate_pps;
      EXPECT_LE(total_delivery, cap * 1.25);
    }
  }
}

TEST(Engine, TwoEqualBbrv1FlowsShareFairly) {
  auto spec = base_spec(CcaKind::kBbrv1, 2, 2.0);
  spec.min_rtt_s = 0.035;  // identical RTTs
  spec.max_rtt_s = 0.035;
  auto setup = scenario::build_fluid(spec);
  setup.sim->run(5.0);
  const auto m = metrics::evaluate_fluid(*setup.sim, setup.bottleneck_link);
  EXPECT_GT(m.jain, 0.95);
  EXPECT_GT(m.utilization_pct, 97.0);
}

TEST(Engine, AccountingIsConsistent) {
  auto setup = scenario::build_fluid(base_spec(CcaKind::kBbrv1, 3, 1.0));
  setup.sim->run(2.0);
  double sent = 0.0, delivered = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(setup.sim->sent_pkts(i), 0.0);
    EXPECT_GE(setup.sim->delivered_pkts(i), 0.0);
    sent += setup.sim->sent_pkts(i);
    delivered += setup.sim->delivered_pkts(i);
  }
  const auto& acct = setup.sim->link_accounting(setup.bottleneck_link);
  EXPECT_GT(acct.arrived_pkts, 0.0);
  EXPECT_GE(acct.lost_pkts, 0.0);
  // Deliveries cannot exceed sends by more than the approximation slack.
  EXPECT_LE(delivered, sent * 1.05 + 10.0);
  // Served volume cannot exceed capacity × time.
  EXPECT_LE(acct.served_pkts, mbps_to_pps(100.0) * 2.0 * 1.001);
}

// Invariant sweep over mixes, disciplines, and buffer sizes: queues stay in
// [0, B], losses in [0, 1], rates non-negative and bounded.
struct InvariantCase {
  scenario::CcaMix mix;
  net::Discipline discipline;
  double buffer_bdp;
};

class EngineInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(EngineInvariantTest, StateStaysPhysical) {
  const auto [mix_idx, disc_idx, buffer] = GetParam();
  const auto mixes = scenario::paper_mixes(4);
  ExperimentSpec spec;
  spec.mix = mixes[static_cast<std::size_t>(mix_idx)];
  spec.capacity_pps = mbps_to_pps(100.0);
  spec.buffer_bdp = buffer;
  spec.discipline = disc_idx == 0 ? net::Discipline::kDropTail
                                  : net::Discipline::kRed;
  spec.duration_s = 2.0;
  spec.fluid.step_s = 100e-6;  // coarse but stable; keeps the sweep fast

  auto setup = scenario::build_fluid(spec, core::Recording::kFullTrace);
  setup.sim->run(spec.duration_s);

  const double cap = spec.capacity_pps;
  const auto& topo = setup.sim->topology();
  for (const auto& s : setup.sim->trace().samples) {
    for (std::size_t l = 0; l < s.links.size(); ++l) {
      EXPECT_GE(s.links[l].queue_pkts, 0.0);
      EXPECT_LE(s.links[l].queue_pkts, topo.link(l).buffer_pkts * 1.0001);
      EXPECT_GE(s.links[l].loss_prob, 0.0);
      EXPECT_LE(s.links[l].loss_prob, 1.0);
      EXPECT_GE(s.links[l].arrival_pps, 0.0);
    }
    for (const auto& a : s.agents) {
      EXPECT_GE(a.rate_pps, 0.0);
      EXPECT_LE(a.rate_pps, 100.0 * cap);
      EXPECT_GE(a.delivery_rate_pps, 0.0);
      EXPECT_GE(a.cca.inflight_pkts, 0.0);
      EXPECT_GE(a.rtt_s, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MixDisciplineBuffer, EngineInvariantTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5, 6),
                       ::testing::Values(0, 1),
                       ::testing::Values(1.0, 4.0)));

TEST(Engine, Bbrv2EntersProbeRttUnderDropTail) {
  // §4.2: the model's BBRv2 flow drains the queue, discovers the propagation
  // delay, and enters ProbeRTT every 10 s.
  auto spec = base_spec(CcaKind::kBbrv2, 1, 1.0);
  spec.duration_s = 11.0;
  spec.fluid.step_s = 100e-6;
  auto setup = scenario::build_fluid(spec, core::Recording::kFullTrace);
  setup.sim->run(spec.duration_s);
  bool saw_probe_rtt = false;
  for (const auto& s : setup.sim->trace().samples) {
    if (s.agents[0].cca.probe_rtt) saw_probe_rtt = true;
  }
  EXPECT_TRUE(saw_probe_rtt);
}

TEST(Engine, RunContinuesAcrossCalls) {
  auto setup = scenario::build_fluid(base_spec(CcaKind::kBbrv1, 1, 1.0));
  setup.sim->run(1.0);
  const double sent_1s = setup.sim->sent_pkts(0);
  setup.sim->run(1.0);
  EXPECT_NEAR(setup.sim->now(), 2.0, 1e-6);
  EXPECT_GT(setup.sim->sent_pkts(0), 1.5 * sent_1s);
}

TEST(Engine, LiteralEq18StaysBoundedAndUtilized) {
  // The literal Eq. (18) records the sending rate instead of the delivery
  // rate. The estimate cannot detect the capacity ceiling directly, but the
  // window and pacing caps keep the closed loop bounded near C.
  auto spec = base_spec(CcaKind::kBbrv1, 1, 4.0);
  spec.fluid.literal_eq18 = true;
  auto setup = scenario::build_fluid(spec);
  setup.sim->run(5.0);
  const auto& bbr = dynamic_cast<const core::Bbrv1Fluid&>(setup.sim->cca(0));
  EXPECT_GT(bbr.btl_estimate_pps(), 0.7 * mbps_to_pps(100.0));
  EXPECT_LT(bbr.btl_estimate_pps(), 2.0 * mbps_to_pps(100.0));
  const auto m = metrics::evaluate_fluid(*setup.sim, setup.bottleneck_link);
  EXPECT_GT(m.utilization_pct, 90.0);
}

TEST(Engine, LiteralEq19InflightStillBounded) {
  auto spec = base_spec(CcaKind::kBbrv2, 2, 1.0);
  spec.fluid.literal_eq19 = true;
  spec.duration_s = 3.0;
  auto setup = scenario::build_fluid(spec, core::Recording::kFullTrace);
  setup.sim->run(spec.duration_s);
  for (const auto& s : setup.sim->trace().samples) {
    for (const auto& a : s.agents) {
      EXPECT_GE(a.cca.inflight_pkts, 0.0);
      EXPECT_LT(a.cca.inflight_pkts, 10000.0);
    }
  }
}

TEST(Engine, SigmoidSharpnessIsConfigurable) {
  // A deliberately mushy time sigmoid still yields a functioning (if
  // smoother) simulation — no NaNs, no dead flows.
  auto spec = base_spec(CcaKind::kBbrv1, 2, 1.0);
  spec.fluid.k_time = 50.0;
  auto setup = scenario::build_fluid(spec);
  setup.sim->run(2.0);
  EXPECT_GT(setup.sim->sent_pkts(0), 0.0);
  EXPECT_GT(setup.sim->sent_pkts(1), 0.0);
  const auto m = metrics::evaluate_fluid(*setup.sim, setup.bottleneck_link);
  EXPECT_GT(m.utilization_pct, 80.0);
}

TEST(Scenario, MixBuildersLabelAndLayout) {
  const auto homog = scenario::homogeneous(CcaKind::kCubic, 4);
  EXPECT_EQ(homog.label, "CUBIC");
  EXPECT_EQ(homog.flows.size(), 4u);
  const auto mix = scenario::half_half(CcaKind::kBbrv1, CcaKind::kReno, 10);
  EXPECT_EQ(mix.label, "BBRv1/RENO");
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(mix.flows[i], CcaKind::kBbrv1);
    EXPECT_EQ(mix.flows[5 + i], CcaKind::kReno);
  }
  EXPECT_EQ(scenario::paper_mixes(10).size(), 7u);
}

TEST(Scenario, FactoriesProduceAllKinds) {
  for (auto kind : {CcaKind::kReno, CcaKind::kCubic, CcaKind::kBbrv1,
                    CcaKind::kBbrv2}) {
    EXPECT_NE(scenario::make_fluid_cca(kind), nullptr);
    EXPECT_NE(scenario::make_packet_cca(kind, 1), nullptr);
  }
}

TEST(Engine, RttIncludesQueueingDelay) {
  auto setup = scenario::build_fluid(
      base_spec(CcaKind::kBbrv1, 4, 2.0), core::Recording::kFullTrace);
  setup.sim->run(3.0);
  const auto& topo = setup.sim->topology();
  const double cap = topo.link(setup.bottleneck_link).capacity_pps;
  for (const auto& s : setup.sim->trace().samples) {
    const double q = s.links[setup.bottleneck_link].queue_pkts;
    for (std::size_t i = 0; i < s.agents.size(); ++i) {
      const double prop = topo.path_delays(i).rtt_prop_s;
      EXPECT_GE(s.agents[i].rtt_s, prop - 1e-9);
      EXPECT_GE(s.agents[i].rtt_s + 1e-9, prop + q / cap * 0.99);
    }
  }
}

}  // namespace
}  // namespace bbrmodel
