// Tests of the parallel scenario-sweep engine: grid expansion, the thread
// pool, deterministic seeding, the thread-count invariance contract
// (identical CSV/JSON bytes for any worker count), pluggable runners,
// per-task timeout/retry, and shard-union byte-identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "common/require.h"
#include "common/rng.h"
#include "common/units.h"
#include "sweep/merge.h"
#include "sweep/parameter_grid.h"
#include "sweep/runner.h"
#include "sweep/sweep.h"
#include "sweep/thread_pool.h"

namespace bbrmodel::sweep {
namespace {

// A grid small and short enough to simulate many times in one test run.
ParameterGrid tiny_grid() {
  ParameterGrid grid;
  grid.backends = {Backend::kFluid, Backend::kPacket};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp = {1.0, 4.0};
  grid.flow_counts = {2};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {homogeneous_mix(scenario::CcaKind::kBbrv1),
                half_half_mix(scenario::CcaKind::kBbrv1,
                              scenario::CcaKind::kReno)};
  return grid;
}

scenario::ExperimentSpec tiny_base() {
  scenario::ExperimentSpec base;
  base.capacity_pps = mbps_to_pps(20.0);
  base.duration_s = 0.5;
  base.fluid.step_s = 200e-6;
  return base;
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50u);
  }
  pool.parallel_for(0, [](std::size_t) { FAIL() << "no work expected"; });
}

TEST(ThreadPool, PropagatesTheFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Still usable after a failed batch.
  std::atomic<int> ok{0};
  pool.parallel_for(4, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(DeriveSeed, DeterministicAndWellSpread) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {1ull, 2ull, 42ull}) {
    for (std::uint64_t index = 0; index < 100; ++index) {
      seeds.insert(derive_seed(base, index));
    }
  }
  EXPECT_EQ(seeds.size(), 300u) << "collision across (base, index) pairs";
}

TEST(ParameterGrid, CardinalityIsTheAxisProduct) {
  ParameterGrid grid;  // paper defaults
  EXPECT_EQ(grid.cardinality(), 2u * 2u * 7u * 1u * 1u * 7u);
  EXPECT_EQ(paper_grid().cardinality(), 196u);
  EXPECT_EQ(tiny_grid().cardinality(), 2u * 1u * 2u * 1u * 1u * 2u);

  grid.buffers_bdp.clear();
  EXPECT_EQ(grid.cardinality(), 0u);
  EXPECT_THROW(grid.expand(scenario::ExperimentSpec{}), PreconditionError);
}

TEST(ParameterGrid, ExpandResolvesEveryCombinationInOrder) {
  const auto grid = tiny_grid();
  const auto tasks = grid.expand(tiny_base(), /*base_seed=*/7);
  ASSERT_EQ(tasks.size(), grid.cardinality());

  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> coords;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& task = tasks[i];
    EXPECT_EQ(task.index, i);
    EXPECT_EQ(task.backend, grid.backends[task.at.backend]);
    EXPECT_EQ(task.spec.discipline, grid.disciplines[task.at.discipline]);
    EXPECT_EQ(task.spec.buffer_bdp, grid.buffers_bdp[task.at.buffer]);
    EXPECT_EQ(task.spec.mix.flows.size(), grid.flow_counts[task.at.flows]);
    EXPECT_EQ(task.mix_label, grid.mixes[task.at.mix].label);
    EXPECT_EQ(task.spec.seed, derive_seed(7, i));
    coords.insert({task.at.backend, task.at.buffer, task.at.mix});
  }
  EXPECT_EQ(coords.size(), tasks.size()) << "a combination repeated";
  // Mix is the innermost axis; the first two tasks differ only in mix.
  EXPECT_EQ(tasks[0].at.mix, 0u);
  EXPECT_EQ(tasks[1].at.mix, 1u);
  EXPECT_EQ(tasks[0].at.buffer, tasks[1].at.buffer);
}

TEST(RttDist, QuantileSamplingIsDeterministicAndBounded) {
  EXPECT_TRUE(rtt_samples({0.030, 0.040, RttDist::kUniform}, 8).empty())
      << "uniform keeps the legacy linear spread (no explicit vector)";

  const RttRange pareto{0.020, 0.100, RttDist::kPareto};
  const auto a = rtt_samples(pareto, 8);
  const auto b = rtt_samples(pareto, 8);
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a, b) << "samples are a pure function of (range, n)";
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], pareto.min_s);
    EXPECT_LE(a[i], pareto.max_s);
    if (i > 0) {
      EXPECT_GE(a[i], a[i - 1]) << "quantiles are sorted";
    }
  }
  EXPECT_GT(a.back(), a.front()) << "the tail must actually spread";
  // Heavy tail: the median sits well below the midpoint of the range.
  EXPECT_LT(a[4], (pareto.min_s + pareto.max_s) / 2.0);

  const auto bimodal = rtt_samples({0.010, 0.050, RttDist::kBimodal}, 6);
  ASSERT_EQ(bimodal.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(bimodal[i], 0.010);
    EXPECT_DOUBLE_EQ(bimodal[i + 3], 0.050);
  }
}

TEST(RttDist, ExpandFillsPerFlowRttVectors) {
  ParameterGrid grid = tiny_grid();
  grid.rtt_ranges = {{0.030, 0.040, RttDist::kUniform},
                     {0.030, 0.090, RttDist::kPareto}};
  grid.flow_counts = {4};
  const auto tasks = grid.expand(tiny_base(), 42);
  for (const auto& task : tasks) {
    if (task.at.rtt == 0) {
      EXPECT_TRUE(task.spec.flow_rtts_s.empty());
    } else {
      ASSERT_EQ(task.spec.flow_rtts_s.size(), 4u);
      EXPECT_EQ(task.spec.flow_rtts_s,
                rtt_samples(grid.rtt_ranges[1], 4));
    }
  }
}

TEST(RttDist, ScenarioBuildersHonorPerFlowRtts) {
  scenario::ExperimentSpec spec = tiny_base();
  spec.mix = scenario::homogeneous(scenario::CcaKind::kBbrv1, 3);
  spec.flow_rtts_s = {0.030, 0.045, 0.080};
  const auto fluid = scenario::build_fluid(spec);
  const auto& topology = fluid.sim->topology();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(topology.path_delays(i).rtt_prop_s, spec.flow_rtts_s[i],
                1e-12)
        << "flow " << i << " must get exactly its assigned RTT";
  }

  spec.flow_rtts_s = {0.030, 0.045};  // one entry short
  EXPECT_THROW(scenario::build_fluid(spec), PreconditionError);
  spec.flow_rtts_s = {0.030, 0.045, 0.005};  // below 2x bottleneck delay
  EXPECT_THROW(scenario::build_fluid(spec), PreconditionError);
}

TEST(ParameterGrid, MixSpecLabelsMatchScenarioMixes) {
  const auto specs = paper_mix_specs();
  const auto mixes = scenario::paper_mixes(10);
  ASSERT_EQ(specs.size(), mixes.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].label, mixes[i].label);
    const auto made = specs[i].make(10);
    EXPECT_EQ(made.flows, mixes[i].flows);
  }
}

TEST(Sweep, ThreadCountInvariance) {
  const auto grid = tiny_grid();
  const auto base = tiny_base();

  SweepOptions serial;
  serial.threads = 1;
  serial.base_seed = 42;
  const auto one = run_sweep(grid, base, serial);

  SweepOptions parallel = serial;
  parallel.threads = 8;
  const auto eight = run_sweep(grid, base, parallel);

  std::ostringstream csv_one, csv_eight, json_one, json_eight;
  one.write_csv(csv_one);
  eight.write_csv(csv_eight);
  one.write_json(json_one);
  eight.write_json(json_eight);
  EXPECT_EQ(csv_one.str(), csv_eight.str())
      << "CSV must be byte-identical for any thread count";
  EXPECT_EQ(json_one.str(), json_eight.str())
      << "JSON must be byte-identical for any thread count";
}

TEST(Sweep, RepeatedRunsAreBitIdentical) {
  const auto grid = tiny_grid();
  const auto base = tiny_base();
  SweepOptions options;
  options.threads = 4;
  std::ostringstream a, b;
  run_sweep(grid, base, options).write_csv(a);
  run_sweep(grid, base, options).write_csv(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Sweep, BaseSeedChangesPacketResults) {
  ParameterGrid grid = tiny_grid();
  grid.backends = {Backend::kPacket};  // the stochastic backend
  const auto base = tiny_base();
  SweepOptions options;
  options.threads = 2;
  options.base_seed = 1;
  std::ostringstream a, b;
  run_sweep(grid, base, options).write_csv(a);
  options.base_seed = 2;
  run_sweep(grid, base, options).write_csv(b);
  EXPECT_NE(a.str(), b.str()) << "different base seeds must reseed tasks";
}

TEST(Sweep, ResultRowsCarryBoundedMetrics) {
  const auto result = run_sweep(tiny_grid(), tiny_base(), SweepOptions{});
  ASSERT_EQ(result.size(), tiny_grid().cardinality());
  for (const auto& row : result.rows()) {
    EXPECT_GT(row.metrics.jain, 0.0);
    EXPECT_LE(row.metrics.jain, 1.0 + 1e-9);
    EXPECT_GE(row.metrics.loss_pct, 0.0);
    EXPECT_LE(row.metrics.loss_pct, 100.0);
    EXPECT_GE(row.metrics.occupancy_pct, 0.0);
    EXPECT_GE(row.metrics.utilization_pct, 0.0);
    EXPECT_LE(row.metrics.utilization_pct, 100.0 + 1e-6);
    EXPECT_GE(row.wall_s, 0.0);
  }
  EXPECT_GT(result.elapsed_s(), 0.0);
}

TEST(Sweep, CsvShapeMatchesHeader) {
  const auto result = run_sweep(tiny_grid(), tiny_base(), SweepOptions{});
  std::ostringstream out;
  result.write_csv(out);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t line_count = 0;
  const std::size_t columns = SweepResult::csv_header().size();
  while (std::getline(lines, line)) {
    ++line_count;
    const std::size_t commas =
        static_cast<std::size_t>(std::count(line.begin(), line.end(), ','));
    EXPECT_EQ(commas, columns - 1) << "line " << line_count << ": " << line;
  }
  EXPECT_EQ(line_count, 1 + result.size());  // header + one row per task
}

TEST(Shard, SpecSelectsResidueClasses) {
  const ShardSpec shard{1, 3};
  EXPECT_FALSE(shard.selects(0));
  EXPECT_TRUE(shard.selects(1));
  EXPECT_FALSE(shard.selects(2));
  EXPECT_TRUE(shard.selects(4));

  const auto tasks = tiny_grid().expand(tiny_base(), 42);
  const auto kept = filter_shard(tasks, {0, 2});
  ASSERT_EQ(kept.size(), tasks.size() / 2);
  for (const auto& task : kept) EXPECT_EQ(task.index % 2, 0u);
  EXPECT_EQ(kept[1].index, 2u) << "original indices must be preserved";
  EXPECT_THROW(filter_shard(tasks, {2, 2}), PreconditionError);
  EXPECT_THROW(filter_shard(tasks, {0, 0}), PreconditionError);
}

/// A fast deterministic runner so the sharding/timeout/retry tests don't
/// pay for real simulations.
Runner synthetic_runner() {
  return make_runner("", [](const SweepTask& task) {
            metrics::AggregateMetrics m;
            m.jain = 1.0;
            m.loss_pct = static_cast<double>(task.spec.seed % 97);
            m.occupancy_pct = task.spec.buffer_bdp;
            m.utilization_pct = 100.0;
            return m;
          });
}

TEST(Shard, UnionOfShardOutputsIsByteIdenticalToFullRun) {
  const auto grid = tiny_grid();
  const auto base = tiny_base();
  SweepOptions options;
  options.runner = synthetic_runner();

  std::ostringstream full_csv, full_json;
  const auto full = run_sweep(grid, base, options);
  full.write_csv(full_csv);
  full.write_json(full_json);

  std::vector<std::string> shard_csvs, shard_jsons;
  for (std::size_t k = 0; k < 3; ++k) {
    SweepOptions sharded = options;
    sharded.shard = {k, 3};
    const auto result = run_sweep(grid, base, sharded);
    for (const auto& row : result.rows()) {
      EXPECT_TRUE(sharded.shard.selects(row.task.index));
    }
    std::ostringstream csv, json;
    result.write_csv(csv);
    result.write_json(json);
    shard_csvs.push_back(csv.str());
    shard_jsons.push_back(json.str());
  }

  EXPECT_EQ(merge_csv(shard_csvs), full_csv.str())
      << "shard CSV union must reproduce the full run byte-for-byte";
  EXPECT_EQ(merge_json(shard_jsons), full_json.str())
      << "shard JSON union must reproduce the full run byte-for-byte";
}

/// Turn a tiny_grid task into one that runs for seconds: 600 s at the
/// default 100 Mbps and 50 µs step. Untimed, such a two-flow cell takes
/// about 4 s (fluid) or 7 s (packet) on a 4-vCPU Xeon VM.
void make_long(SweepTask& task) {
  const scenario::ExperimentSpec defaults;
  task.spec.capacity_pps = defaults.capacity_pps;
  task.spec.fluid.step_s = defaults.fluid.step_s;
  task.spec.duration_s = 600.0;
}

TEST(Sweep, TimedOutTasksAreReportedNotFatal) {
  // A long fluid cell and a long packet cell beside short ones: the engine
  // loops poll the attempt's deadline, so each long cell stops soon after
  // its budget and frees its thread, while its siblings end ok.
  auto tasks = tiny_grid().expand(tiny_base(), 42);
  ASSERT_EQ(tasks[1].backend, Backend::kFluid);
  ASSERT_EQ(tasks[5].backend, Backend::kPacket);
  make_long(tasks[1]);
  make_long(tasks[5]);
  std::atomic<int> running{0};
  SweepOptions options;
  options.threads = 2;
  options.timeout_s = 0.2;
  options.runner = make_runner("", [&running](const SweepTask& task) {
    running.fetch_add(1);
    struct Leave {
      std::atomic<int>& running;
      ~Leave() { running.fetch_sub(1); }
    } leave{running};
    return backend_runner().run_one(task);
  });
  const auto result = run_tasks(tasks, options);
  EXPECT_EQ(running.load(), 0) << "no attempt may outlive its sweep";
  EXPECT_EQ(result.failed(), 2u);
  for (const auto& row : result.rows()) {
    if (row.task.index == 1 || row.task.index == 5) {
      EXPECT_FALSE(row.ok) << row.task.index;
      EXPECT_EQ(row.error, "timeout after 0.2 s");
      EXPECT_EQ(row.attempts, 1u);
      EXPECT_LT(row.wall_s, 1.0)
          << "a timed-out cell must stop, not run to the end";
    } else {
      EXPECT_TRUE(row.ok) << row.task.index << ": " << row.error;
    }
  }

  std::ostringstream csv, json;
  result.write_csv(csv);
  result.write_json(json);
  EXPECT_NE(csv.str().find(",failed,timeout after 0.2 s"), std::string::npos);
  EXPECT_NE(json.str().find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.str().find("\"failed\": 2"), std::string::npos);
}

TEST(Sweep, TimeoutsAreRetriedUpToMaxAttempts) {
  auto task = tiny_grid().expand(tiny_base(), 42).front();
  ASSERT_EQ(task.backend, Backend::kFluid);
  make_long(task);
  std::atomic<std::size_t> calls{0};
  SweepOptions options;
  options.timeout_s = 0.1;
  options.max_attempts = 3;
  options.runner = make_runner("", [&calls](const SweepTask& t) {
    calls.fetch_add(1);
    return fluid_runner().run_one(t);
  });
  const auto result = run_tasks({task}, options);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_FALSE(result.row(0).ok);
  EXPECT_EQ(result.row(0).error, "timeout after 0.1 s");
  EXPECT_EQ(result.row(0).attempts, 3u);
  EXPECT_EQ(calls.load(), 3u) << "every attempt must run";
  EXPECT_LT(result.row(0).wall_s, 3.0);
}

TEST(Sweep, RunCellRunsEveryAttemptOnTheCallingThread) {
  const auto task = tiny_grid().expand(tiny_base(), 42).front();
  std::vector<std::thread::id> seen;
  SweepOptions options;
  options.timeout_s = 600.0;
  options.max_attempts = 2;
  const Runner runner = make_runner("", [&seen](const SweepTask&) {
    seen.push_back(std::this_thread::get_id());
    if (seen.size() == 1) throw std::runtime_error("flaky");
    return metrics::AggregateMetrics{};
  });
  const TaskResult row = run_cell(task, runner, options);
  EXPECT_TRUE(row.ok) << row.error;
  EXPECT_EQ(row.attempts, 2u);
  ASSERT_EQ(seen.size(), 2u);
  for (const auto& id : seen) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(Sweep, ARetryAfterATimeoutCanSucceed) {
  // A runner that never polls only returns late; that overrun is a
  // timeout too, and the retry that returns in time ends ok.
  const auto tasks = tiny_grid().expand(tiny_base(), 42);
  std::vector<std::atomic<int>> attempts_per_task(tasks.size());
  SweepOptions options;
  options.threads = 2;
  options.timeout_s = 0.1;
  options.max_attempts = 3;
  options.runner = make_runner("", [&](const SweepTask& task) {
    if (task.index == 3 && attempts_per_task[task.index].fetch_add(1) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    metrics::AggregateMetrics m;
    m.jain = 1.0;
    return m;
  });
  const auto result = run_tasks(tasks, options);
  EXPECT_EQ(result.failed(), 0u);
  EXPECT_EQ(result.row(3).attempts, 2u);
  EXPECT_TRUE(result.row(3).ok);
  EXPECT_EQ(result.row(0).attempts, 1u);
}

TEST(Sweep, FluidCellsRunFirst) {
  // One pool task per cell, handed out in index order: on one thread a
  // runner sees tiny_grid's cells in index order, and backend is the
  // outermost axis, so the long fluid cells come first.
  const auto tasks = tiny_grid().expand(tiny_base(), 42);
  std::vector<std::size_t> seen;
  SweepOptions options;
  options.threads = 1;
  options.runner = make_runner("", [&seen](const SweepTask& task) {
    seen.push_back(task.index);
    return metrics::AggregateMetrics{};
  });
  run_tasks(tasks, options);
  ASSERT_EQ(seen.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(seen[i], tasks[i].index);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tasks[seen[i]].backend, Backend::kFluid) << i;
  }
}

TEST(Sweep, RetriesRecoverTransientFailures) {
  const auto tasks = tiny_grid().expand(tiny_base(), 42);
  std::vector<std::atomic<int>> attempts_per_task(tasks.size());
  SweepOptions options;
  options.max_attempts = 3;
  options.runner = make_runner("", [&](const SweepTask& task) {
    if (attempts_per_task[task.index].fetch_add(1) < 2) {
      throw std::runtime_error("flaky");
    }
    return metrics::AggregateMetrics{};
  });
  const auto result = run_tasks(tasks, options);
  EXPECT_EQ(result.failed(), 0u);
  for (const auto& row : result.rows()) EXPECT_EQ(row.attempts, 3u);
}

TEST(Sweep, ExhaustedRetriesReportTheError) {
  const auto tasks = tiny_grid().expand(tiny_base(), 42);
  SweepOptions options;
  options.max_attempts = 2;
  options.runner =
      make_runner("", [](const SweepTask&) -> metrics::AggregateMetrics {
        throw std::runtime_error("boom\nwith detail");
      });
  const auto result = run_tasks(tasks, options);  // must not throw
  EXPECT_EQ(result.failed(), tasks.size());
  for (const auto& row : result.rows()) {
    EXPECT_FALSE(row.ok);
    EXPECT_EQ(row.attempts, 2u);
    EXPECT_EQ(row.error, "boom with detail")
        << "line breaks must be flattened: CSV rows stay single-line for "
           "the shard merge";
  }
  // Failed rows serialize empty metric cells after the coordinates, and
  // every row stays one physical line even with a newline in the error.
  std::ostringstream csv;
  result.write_csv(csv);
  const std::string bytes = csv.str();
  EXPECT_NE(bytes.find(",,,,,failed,boom with detail"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(bytes.begin(), bytes.end(), '\n')),
            1 + result.size());
}

TEST(Runner, BuiltInsAreNamedAndDispatch) {
  EXPECT_EQ(fluid_runner().name, "fluid");
  EXPECT_EQ(packet_runner().name, "packet");
  EXPECT_EQ(reduced_runner().name, "reduced");
  EXPECT_EQ(backend_runner().name, "backend");
  EXPECT_FALSE(static_cast<bool>(Runner{}));

  // The reduced backend flows through the default dispatch and returns the
  // §5 closed forms: full utilization, perfect fairness, x_i = C/N.
  ParameterGrid grid = tiny_grid();
  grid.backends = {Backend::kReduced};
  grid.mixes = {homogeneous_mix(scenario::CcaKind::kBbrv2)};
  grid.flow_counts = {4};
  const auto result = run_sweep(grid, tiny_base(), SweepOptions{});
  ASSERT_EQ(result.size(), grid.cardinality());
  for (const auto& row : result.rows()) {
    EXPECT_TRUE(row.ok);
    EXPECT_DOUBLE_EQ(row.metrics.jain, 1.0);
    EXPECT_DOUBLE_EQ(row.metrics.utilization_pct, 100.0);
    ASSERT_EQ(row.metrics.mean_rate_pps.size(), 4u);
    EXPECT_NEAR(row.metrics.mean_rate_pps[0],
                tiny_base().capacity_pps / 4.0, 1e-9);
    ASSERT_EQ(row.metrics.aux.size(), 2u);
  }
}

TEST(Sweep, TaskIndicesMustStrictlyIncrease) {
  auto tasks = tiny_grid().expand(tiny_base(), 42);
  std::swap(tasks[0], tasks[1]);
  EXPECT_THROW(run_tasks(tasks, SweepOptions{}), PreconditionError);
}

}  // namespace
}  // namespace bbrmodel::sweep
