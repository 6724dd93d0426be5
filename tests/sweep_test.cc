// Tests of the parallel scenario-sweep engine: grid expansion, the thread
// pool, deterministic seeding, the thread-count invariance contract
// (identical CSV/JSON bytes for any worker count), pluggable runners,
// per-task timeout/retry, and shard-union byte-identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "common/require.h"
#include "common/rng.h"
#include "common/units.h"
#include "sweep/cell_cache.h"
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

TEST(Sweep, TimedOutTasksAreReportedNotFatal) {
  const auto tasks = tiny_grid().expand(tiny_base(), 42);
  SweepOptions options;
  options.threads = 2;
  // Generous margin over thread-spawn jitter on loaded CI machines: the
  // hung task sleeps 8x the budget, the healthy ones return instantly.
  options.timeout_s = 0.25;
  options.max_attempts = 3;  // timeouts are terminal: must NOT retry
  options.runner = make_runner("", [](const SweepTask& task) {
    if (task.index == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2000));
    }
    metrics::AggregateMetrics m;
    m.jain = 1.0;
    return m;
  });
  const auto result = run_tasks(tasks, options);
  EXPECT_EQ(result.failed(), 1u);
  EXPECT_FALSE(result.row(1).ok);
  EXPECT_NE(result.row(1).error.find("timeout"), std::string::npos);
  EXPECT_EQ(result.row(1).attempts, 1u)
      << "the abandoned attempt may still run the task; a retry would "
         "race it";
  EXPECT_TRUE(result.row(0).ok);

  std::ostringstream csv, json;
  result.write_csv(csv);
  result.write_json(json);
  EXPECT_NE(csv.str().find(",failed,timeout"), std::string::npos);
  EXPECT_NE(json.str().find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.str().find("\"failed\": 1"), std::string::npos);
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

// ---- batched execution -----------------------------------------------------

/// A batch-capable synthetic runner whose run_batch agrees bitwise with
/// run_one by construction; the test can observe which cells actually
/// went through the batch path.
Runner counting_batch_runner(std::vector<std::vector<std::size_t>>* batches,
                             std::mutex* mutex) {
  Runner r;
  r.name = "counting-batch";
  r.run_one = [](const SweepTask& task) {
    metrics::AggregateMetrics m;
    m.jain = 1.0;
    m.loss_pct = static_cast<double>(task.spec.seed % 97);
    m.occupancy_pct = task.spec.buffer_bdp;
    m.utilization_pct = 100.0;
    return m;
  };
  r.run_batch = [batches, mutex, scalar = r.run_one](
                    const std::vector<const SweepTask*>& members) {
    std::vector<metrics::AggregateMetrics> out;
    std::vector<std::size_t> indices;
    for (const SweepTask* task : members) {
      out.push_back(scalar(*task));
      indices.push_back(task->index);
    }
    if (batches != nullptr) {
      std::lock_guard<std::mutex> lock(*mutex);
      batches->push_back(std::move(indices));
    }
    return out;
  };
  r.preferred_batch = 4;
  return r;
}

TEST(Batch, FluidBatchingIsByteInvariantAcrossThreadsAndShards) {
  // The real fluid runner under the real dispatcher: any grouping of the
  // fluid cells into work units must reproduce the one-cell-per-unit bytes
  // exactly — also when the cells of one unit differ in duration.
  ParameterGrid grid = tiny_grid();
  grid.backends = {Backend::kFluid};
  const auto base = tiny_base();
  auto mixed_durations = grid.expand(base, SweepOptions{}.base_seed);
  for (auto& task : mixed_durations) {
    if (task.index % 2 == 1) task.spec.duration_s = 0.3;
  }
  using RunFn = std::function<SweepResult(const SweepOptions&)>;
  const RunFn inputs[] = {
      [&](const SweepOptions& o) { return run_sweep(grid, base, o); },
      [&](const SweepOptions& o) {
        return run_tasks(filter_shard(mixed_durations, o.shard), o);
      },
  };

  for (const RunFn& run : inputs) {
    SweepOptions scalar;
    scalar.threads = 1;
    scalar.batch_cells = 1;
    std::ostringstream ref_csv, ref_json;
    const auto reference = run(scalar);
    reference.write_csv(ref_csv);
    reference.write_json(ref_json);

    for (const std::size_t batch_cells :
         std::initializer_list<std::size_t>{0, 3}) {
      for (const std::size_t threads :
           std::initializer_list<std::size_t>{1, 4}) {
        SweepOptions batched;
        batched.threads = threads;
        batched.batch_cells = batch_cells;
        std::ostringstream csv, json;
        const auto result = run(batched);
        result.write_csv(csv);
        result.write_json(json);
        EXPECT_EQ(csv.str(), ref_csv.str())
            << "batch_cells=" << batch_cells << " threads=" << threads;
        EXPECT_EQ(json.str(), ref_json.str())
            << "batch_cells=" << batch_cells << " threads=" << threads;
      }
    }

    // Sharded batched runs merge into the same bytes as the scalar full run.
    std::vector<std::string> shard_csvs;
    for (std::size_t k = 0; k < 2; ++k) {
      SweepOptions sharded;
      sharded.batch_cells = 2;
      sharded.shard = {k, 2};
      std::ostringstream csv;
      run(sharded).write_csv(csv);
      shard_csvs.push_back(csv.str());
    }
    EXPECT_EQ(merge_csv(shard_csvs), ref_csv.str())
        << "batched shard union must be byte-identical to the scalar run";
  }
}

TEST(Batch, MultiCellUnitsRunFirst) {
  // tiny_grid's four fluid cells form one unit on one thread; it must run
  // before the four packet singletons, so the first progress report
  // covers the whole unit.
  const auto tasks = tiny_grid().expand(tiny_base(), 42);
  std::vector<std::size_t> done;
  SweepOptions options;
  options.threads = 1;
  options.progress = [&done](std::size_t completed, std::size_t) {
    done.push_back(completed);
  };
  run_tasks(tasks, options);
  ASSERT_FALSE(done.empty());
  EXPECT_EQ(done.front(), 4u)
      << "the first unit to finish must be the 4-cell fluid unit";
  EXPECT_EQ(done.back(), tasks.size());
}

TEST(Batch, WarmCellsArePeeledFromBatches) {
  const auto tasks = tiny_grid().expand(tiny_base(), 42);
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "batch_peel_cache";
  std::filesystem::remove_all(dir);
  CellCache cache(dir.string());

  // Reference bytes: everything scalar, no cache.
  SweepOptions scalar;
  scalar.runner = counting_batch_runner(nullptr, nullptr);
  scalar.batch_cells = 1;
  std::ostringstream reference;
  run_tasks(tasks, scalar).write_csv(reference);

  // Warm the even-indexed cells through the scalar path.
  SweepOptions warm = scalar;
  warm.cache = &cache;
  run_tasks(filter_shard(tasks, {0, 2}), warm);
  const std::size_t warmed = cache.stores();
  ASSERT_GT(warmed, 0u);

  // A batched run against the warm cache: hits are served per cell and
  // only the misses reach run_batch.
  std::mutex mutex;
  std::vector<std::vector<std::size_t>> batches;
  SweepOptions batched;
  batched.runner = counting_batch_runner(&batches, &mutex);
  batched.batch_cells = 8;
  batched.threads = 1;
  batched.cache = &cache;
  std::ostringstream out;
  run_tasks(tasks, batched).write_csv(out);
  EXPECT_EQ(out.str(), reference.str())
      << "a mixed warm/cold batch must not change a byte";

  std::size_t batched_cells = 0;
  for (const auto& group : batches) {
    for (const std::size_t index : group) {
      EXPECT_EQ(index % 2, 1u) << "warm cell " << index
                               << " must be peeled before the batch runs";
      ++batched_cells;
    }
  }
  EXPECT_EQ(batched_cells, tasks.size() - warmed);
}

TEST(Batch, FailingBatchDegradesToScalarWithoutPoisoningSiblings) {
  const auto tasks = tiny_grid().expand(tiny_base(), 42);
  std::atomic<std::size_t> batch_attempts{0};
  Runner runner = counting_batch_runner(nullptr, nullptr);
  const RunnerFn healthy = runner.run_one;
  runner.run_one = [healthy](const SweepTask& task) {
    if (task.index == 2) throw std::runtime_error("cell 2 is cursed");
    return healthy(task);
  };
  runner.run_batch = [&batch_attempts](const std::vector<const SweepTask*>&)
      -> std::vector<metrics::AggregateMetrics> {
    batch_attempts.fetch_add(1);
    throw std::runtime_error("batch integration exploded");
  };

  SweepOptions options;
  options.runner = runner;
  options.batch_cells = 8;
  options.threads = 2;
  const auto result = run_tasks(tasks, options);
  EXPECT_GT(batch_attempts.load(), 0u) << "the batch path must be tried";
  EXPECT_EQ(result.failed(), 1u);
  for (const auto& row : result.rows()) {
    if (row.task.index == 2) {
      EXPECT_FALSE(row.ok);
      EXPECT_NE(row.error.find("cursed"), std::string::npos)
          << "the scalar retry's error must be reported, not the batch's";
    } else {
      EXPECT_TRUE(row.ok)
          << "siblings of a failed batch must recover via scalar retries";
    }
  }

  // The recovered run's bytes match a pure scalar run of the same runner.
  SweepOptions scalar = options;
  scalar.batch_cells = 1;
  std::ostringstream a, b;
  result.write_csv(a);
  run_tasks(tasks, scalar).write_csv(b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace bbrmodel::sweep
