// Solver-performance microbenchmarks (google-benchmark).
//
// The paper's methodology rests on fluid models enabling *efficient
// simulation* (§1, §7). These benchmarks quantify that claim for this
// implementation: fluid steps/second across flow counts and solver steps,
// the packet simulator's events/second, and reduced-model RK4 throughput.
// Both simulators also report simulated seconds per wall second
// (sim_time/wall), the figure that compares across engine changes:
// events/s alone rises when dead events are added and falls when they
// are removed.
#include <benchmark/benchmark.h>

#include "analysis/equilibrium.h"
#include "analysis/reduced_models.h"
#include "bench_util.h"
#include "common/units.h"
#include "ode/steppers.h"
#include "scenario/scenario.h"

namespace {

using namespace bbrmodel;

void BM_FluidSimulation(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  const double step_us = static_cast<double>(state.range(1));
  scenario::ExperimentSpec spec = bench::validation_spec();
  spec.mix = scenario::half_half(scenario::CcaKind::kBbrv1,
                                 scenario::CcaKind::kBbrv2,
                                 std::max<std::size_t>(2, flows));
  spec.fluid.step_s = step_us * 1e-6;

  // What a sweep cell runs: scenario::build_fluid's default recording (the
  // RTT series only) at the default record interval, for 1 s, so that the
  // start-up steps (t below a path delay) are a small share.
  double sim_seconds = 0.0;
  for (auto _ : state) {
    auto setup = scenario::build_fluid(spec);
    setup.sim->run(1.0);
    benchmark::DoNotOptimize(setup.sim->queue_pkts(setup.bottleneck_link));
    sim_seconds += 1.0;
  }
  const double steps =
      sim_seconds / spec.fluid.step_s * static_cast<double>(flows);
  state.counters["agent_steps/s"] =
      benchmark::Counter(steps, benchmark::Counter::kIsRate);
  state.counters["sim_time/wall"] = benchmark::Counter(
      sim_seconds, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FluidSimulation)
    ->Args({2, 50})
    ->Args({10, 50})
    ->Args({50, 50})
    ->Args({10, 10})
    ->Unit(benchmark::kMillisecond);

void BM_PacketSimulation(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  scenario::ExperimentSpec spec = bench::validation_spec();
  spec.mix = scenario::homogeneous(scenario::CcaKind::kBbrv1, flows);
  spec.buffer_bdp = 1.0;

  std::uint64_t events = 0;
  double sim_seconds = 0.0;
  for (auto _ : state) {
    auto setup = scenario::build_packet(spec);
    setup.net->run(0.5);
    events += setup.net->events().executed();
    sim_seconds += 0.5;
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_time/wall"] = benchmark::Counter(
      sim_seconds, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PacketSimulation)->Arg(2)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_ReducedModelRk4(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto s = analysis::BottleneckScenario::uniform(
      n, mbps_to_pps(100.0), 0.035);
  const auto rhs = analysis::bbrv2_reduced_rhs(s);
  auto x = analysis::bbrv2_equilibrium_state(s);
  for (double& v : x) v *= 1.1;

  std::uint64_t steps = 0;
  for (auto _ : state) {
    for (int k = 0; k < 1000; ++k) ode::rk4_step(rhs, 0.0, 1e-3, x);
    benchmark::DoNotOptimize(x.data());
    steps += 1000;
  }
  state.counters["rk4_steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReducedModelRk4)->Arg(2)->Arg(10)->Arg(50);

}  // namespace

BENCHMARK_MAIN();
