#include "sweep/runner.h"

#include <algorithm>

#include "analysis/equilibrium.h"
#include "common/require.h"
#include "scenario/scenario.h"

namespace bbrmodel::sweep {

namespace {

metrics::AggregateMetrics run_fluid_cell(const SweepTask& task) {
  return scenario::run_fluid(task.spec);
}

metrics::AggregateMetrics run_packet_cell(const SweepTask& task) {
  return scenario::run_packet(task.spec);
}

metrics::AggregateMetrics run_reduced(const SweepTask& task) {
  const auto& spec = task.spec;
  const std::size_t n = spec.mix.flows.size();
  BBRM_REQUIRE_MSG(n > 0, "reduced runner needs a mix with flows");
  const auto kind = spec.mix.flows.front();
  const bool homogeneous =
      std::all_of(spec.mix.flows.begin(), spec.mix.flows.end(),
                  [&](scenario::CcaKind k) { return k == kind; });
  BBRM_REQUIRE_MSG(homogeneous && (kind == scenario::CcaKind::kBbrv1 ||
                                   kind == scenario::CcaKind::kBbrv2),
                   "the reduced models cover homogeneous BBRv1/BBRv2 mixes "
                   "only (paper §5)");

  const double d = 0.5 * (spec.min_rtt_s + spec.max_rtt_s);
  const double cap = spec.capacity_pps;
  const double buffer_pkts = spec.buffer_bdp * cap * d;
  const auto s =
      analysis::BottleneckScenario::uniform(n, cap, d, buffer_pkts);

  metrics::AggregateMetrics m;
  m.jain = 1.0;  // Theorems 1/3/4: every equilibrium is perfectly fair
  m.utilization_pct = 100.0;
  if (kind == scenario::CcaKind::kBbrv1) {
    const auto deep = analysis::bbrv1_deep_equilibrium(s);
    if (buffer_pkts > deep.required_buffer_pkts) {
      // Theorem 1: the standing queue equals one propagation BDP.
      m.occupancy_pct = 100.0 * deep.queue_pkts / buffer_pkts;
      m.mean_rate_pps.assign(n, cap / static_cast<double>(n));
      m.aux = {deep.queue_pkts, cap / static_cast<double>(n)};
    } else {
      // Theorem 3: the buffer stays full and the aggregate overshoots
      // capacity, losing (N−1)/(5N) of it.
      const auto shallow = analysis::bbrv1_shallow_equilibrium(s);
      m.occupancy_pct = 100.0;
      m.loss_pct = 100.0 * shallow.loss_rate;
      m.mean_rate_pps.assign(n, shallow.btl_pps);
      m.aux = {buffer_pkts, shallow.btl_pps};
    }
  } else {
    // Theorem 4: q* = (N−1)/(4N+1)·d·C, at most one quarter of BBRv1's.
    const auto v2 = analysis::bbrv2_equilibrium(s);
    const double queue = std::min(v2.queue_pkts, buffer_pkts);
    m.occupancy_pct = buffer_pkts > 0.0 ? 100.0 * queue / buffer_pkts : 0.0;
    m.mean_rate_pps.assign(n, v2.rate_pps);
    m.aux = {v2.queue_pkts, v2.rate_pps};
  }
  return m;
}

metrics::AggregateMetrics run_backend_cell(const SweepTask& task) {
  switch (task.backend) {
    case Backend::kFluid:
      return run_fluid_cell(task);
    case Backend::kPacket:
      return run_packet_cell(task);
    case Backend::kReduced:
      return run_reduced(task);
  }
  BBRM_REQUIRE_MSG(false, "unreachable backend");
  return metrics::AggregateMetrics{};
}

}  // namespace

Runner fluid_runner() { return make_runner("fluid", run_fluid_cell); }

Runner packet_runner() { return make_runner("packet", run_packet_cell); }

Runner reduced_runner() { return make_runner("reduced", run_reduced); }

Runner backend_runner() { return make_runner("backend", run_backend_cell); }

}  // namespace bbrmodel::sweep
