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

std::vector<metrics::AggregateMetrics> run_fluid_cells(
    const std::vector<const SweepTask*>& tasks) {
  std::vector<const scenario::ExperimentSpec*> specs;
  specs.reserve(tasks.size());
  for (const SweepTask* task : tasks) specs.push_back(&task->spec);
  return scenario::run_fluid_batch(specs);
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

// Fluid cells per work unit by default. A unit only sets how many cells
// one worker call runs back to back; plan_units shrinks units further so a
// small grid still spreads over every thread.
constexpr std::size_t kFluidBatch = 8;

}  // namespace

Runner fluid_runner() {
  Runner r;
  r.name = "fluid";
  r.run_one = run_fluid_cell;
  r.run_batch = run_fluid_cells;
  r.preferred_batch = kFluidBatch;
  return r;
}

Runner packet_runner() {
  Runner r;
  r.name = "packet";
  r.run_one = run_packet_cell;
  return r;
}

Runner reduced_runner() {
  Runner r;
  r.name = "reduced";
  r.run_one = run_reduced;
  return r;
}

Runner backend_runner() {
  Runner r;
  r.name = "backend";
  r.run_one = run_backend_cell;
  r.run_batch = run_fluid_cells;
  r.batchable = [](const SweepTask& task) {
    return task.backend == Backend::kFluid;
  };
  r.preferred_batch = kFluidBatch;
  return r;
}

}  // namespace bbrmodel::sweep
