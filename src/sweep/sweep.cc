#include "sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <thread>

#include "adaptive/refiner.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/require.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orchestrator/execution_plan.h"
#include "scenario/spec_codec.h"
#include "sweep/cell_cache.h"
#include "sweep/thread_pool.h"

namespace bbrmodel::sweep {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Metrics of a failed task: NaN scalars (empty CSV cells, JSON nulls).
metrics::AggregateMetrics failed_metrics() {
  metrics::AggregateMetrics m;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  m.jain = m.loss_pct = m.occupancy_pct = m.utilization_pct = m.jitter_ms =
      nan;
  return m;
}

struct AttemptOutcome {
  metrics::AggregateMetrics metrics;
  bool ok = false;
  bool timed_out = false;
  std::string error;
};

/// Error text lands in single-line CSV cells that the shard merge splits
/// line-by-line, so flatten any line breaks an exception message carries.
std::string single_line(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

/// One runner invocation, optionally fenced by a wall-clock budget. The
/// timed variant runs the attempt on its own thread; on timeout that
/// thread is abandoned (detached) — it cannot be cancelled, but its task
/// copy keeps everything it touches alive until it finishes on its own.
AttemptOutcome run_attempt(const RunnerFn& fn, const SweepTask& task,
                           double timeout_s) {
  if (timeout_s <= 0.0) {
    try {
      return {fn(task), true, false, ""};
    } catch (const std::exception& e) {
      return {failed_metrics(), false, false, single_line(e.what())};
    } catch (...) {
      return {failed_metrics(), false, false, "unknown runner error"};
    }
  }

  std::packaged_task<metrics::AggregateMetrics()> attempt(
      [fn, task] { return fn(task); });  // by value: may outlive this frame
  auto future = attempt.get_future();
  std::thread worker(std::move(attempt));
  if (future.wait_for(std::chrono::duration<double>(timeout_s)) ==
      std::future_status::timeout) {
    worker.detach();
    return {failed_metrics(), false, true,
            "timeout after " + csv_number(timeout_s) + " s"};
  }
  worker.join();
  try {
    return {future.get(), true, false, ""};
  } catch (const std::exception& e) {
    return {failed_metrics(), false, false, single_line(e.what())};
  } catch (...) {
    return {failed_metrics(), false, false, "unknown runner error"};
  }
}

/// Hot-path metric handles, resolved once per thread (registry lookups
/// and shard registration take a lock; updates never do). Per-cell
/// metrics write through single-writer shards — plain load + store — so
/// the instrumented path costs ~2 ns per counter even with a pool of
/// sweep threads. Rare events (retries, failures, per-batch occupancy)
/// stay on the shared cells.
struct SweepMetrics {
  obs::Counter::Shard& cells =
      obs::Registry::global().counter("sweep.cells").shard();
  obs::Counter::Shard& cache_hits =
      obs::Registry::global().counter("sweep.cache_hits").shard();
  obs::Counter::Shard& cache_misses =
      obs::Registry::global().counter("sweep.cache_misses").shard();
  obs::Counter& retries = obs::Registry::global().counter("sweep.retries");
  obs::Counter& failures = obs::Registry::global().counter("sweep.failures");
  obs::Counter::Shard& batched_cells =
      obs::Registry::global().counter("sweep.batched_cells").shard();
  obs::Histogram::Shard& cell_wall_s =
      obs::Registry::global().histogram("sweep.cell_wall_s").shard();
  obs::Histogram& batch_occupancy =
      obs::Registry::global().histogram("sweep.batch_occupancy");

  static SweepMetrics& get() {
    static thread_local SweepMetrics metrics;
    return metrics;
  }
};

/// Full lifecycle of one task: cache probe, bounded attempts, cache fill.
TaskResult run_one_task(const SweepTask& task, const Runner& runner,
                        const SweepOptions& options) {
  SweepMetrics& counters = SweepMetrics::get();
  TaskResult result;
  result.task = task;

  std::string key;
  if (options.cache != nullptr && !runner.name.empty() &&
      scenario::spec_cacheable(task.spec)) {
    obs::Span probe("cache-probe");
    key = cell_key(runner.name, task);
    if (auto cached = options.cache->load(key)) {
      probe.arg("hit", std::uint64_t{1});
      counters.cache_hits.add();
      counters.cells.add();
      result.metrics = std::move(*cached);
      result.cached = true;
      return result;
    }
    counters.cache_misses.add();
  }

  AttemptOutcome outcome;
  {
    obs::Span span("run");
    span.arg("task", static_cast<std::uint64_t>(task.index));
    while (result.attempts < options.max_attempts) {
      ++result.attempts;
      outcome = run_attempt(runner.run_one, task, options.timeout_s);
      if (outcome.ok) break;
      // A timed-out attempt is terminal: its abandoned thread may still be
      // executing this task, and runners are only promised concurrency
      // across distinct tasks — retrying would race it.
      if (outcome.timed_out) break;
    }
    span.arg("attempts", static_cast<std::uint64_t>(result.attempts));
  }
  if (result.attempts > 1) counters.retries.add(result.attempts - 1);
  if (!outcome.ok) counters.failures.add();
  counters.cells.add();
  result.metrics = std::move(outcome.metrics);
  result.ok = outcome.ok;
  result.error = std::move(outcome.error);
  if (result.ok && !key.empty()) options.cache->store(key, result.metrics);
  return result;
}

/// The cell-cache key of a task under `runner`, or "" when the task does
/// not participate in caching (no cache, unnamed runner, uncacheable spec).
std::string task_cache_key(const SweepTask& task, const Runner& runner,
                           const SweepOptions& options) {
  if (options.cache == nullptr || runner.name.empty() ||
      !scenario::spec_cacheable(task.spec)) {
    return "";
  }
  return cell_key(runner.name, task);
}

/// A unit of scheduling: either one task (scalar path) or several
/// batch-compatible tasks destined for one Runner::run_batch call.
struct WorkUnit {
  std::vector<std::size_t> members;  ///< positions into the tasks vector
  bool batched = false;
};

/// Group tasks into work units. Batch-eligible tasks (runner.can_batch,
/// batching enabled) split, in task order, into units of at most
/// `unit_cells`, sized so small grids still fan out across all workers
/// instead of collapsing into one big unit. Everything else is a
/// singleton unit. Multi-cell units come first, so the pool starts the
/// longest work first and the short singletons fill in around it instead
/// of one long unit running alone at the end. Unit layout and order never
/// affect output bytes (see sweep.h).
std::vector<WorkUnit> plan_units(const std::vector<SweepTask>& tasks,
                                 const Runner& runner,
                                 const SweepOptions& options,
                                 std::size_t workers) {
  const std::size_t requested = options.batch_cells == 0
                                    ? runner.preferred_batch
                                    : options.batch_cells;
  // A per-attempt timeout fences each cell on its own thread; a unit run
  // cannot honor that, so the scalar path takes over.
  const bool batching =
      runner.run_batch && requested > 1 && options.timeout_s <= 0.0;

  std::vector<std::size_t> batchable;
  std::vector<std::size_t> singles;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (batching && runner.can_batch(tasks[i])) {
      batchable.push_back(i);
    } else {
      singles.push_back(i);
    }
  }

  std::vector<WorkUnit> units;
  units.reserve(tasks.size());
  const std::size_t n = batchable.size();
  // Keep every worker busy: never batch so coarsely that a small grid
  // serializes onto fewer threads than the pool has.
  const std::size_t lanes = std::max<std::size_t>(1, std::min(n, workers));
  const std::size_t unit_cells = std::min(requested, (n + lanes - 1) / lanes);
  for (std::size_t at = 0; at < n; at += unit_cells) {
    WorkUnit unit;
    unit.members.assign(batchable.begin() + at,
                        batchable.begin() + std::min(n, at + unit_cells));
    unit.batched = unit.members.size() > 1;
    units.push_back(std::move(unit));
  }
  for (const std::size_t i : singles) units.push_back({{i}, false});
  return units;
}

/// Execute one batched unit: peel cache hits per cell, run the misses
/// through Runner::run_batch, and fill the per-cell rows. Any batch
/// failure degrades every miss to the scalar run_one_task path, so one
/// poisoned cell never fails its siblings and per-cell retry semantics
/// are preserved exactly.
void run_batch_unit(const std::vector<SweepTask>& tasks, const WorkUnit& unit,
                    const Runner& runner, const SweepOptions& options,
                    std::vector<TaskResult>& rows) {
  SweepMetrics& counters = SweepMetrics::get();
  std::vector<std::size_t> miss;
  std::vector<std::string> miss_keys;
  miss.reserve(unit.members.size());

  {
    obs::Span probe("cache-probe");
    probe.arg("cells", static_cast<std::uint64_t>(unit.members.size()));
    for (const std::size_t i : unit.members) {
      std::string key = task_cache_key(tasks[i], runner, options);
      if (!key.empty()) {
        if (auto cached = options.cache->load(key)) {
          counters.cache_hits.add();
          counters.cells.add();
          rows[i].task = tasks[i];
          rows[i].metrics = std::move(*cached);
          rows[i].cached = true;
          continue;
        }
        counters.cache_misses.add();
      }
      miss.push_back(i);
      miss_keys.push_back(std::move(key));
    }
    probe.arg("hits",
              static_cast<std::uint64_t>(unit.members.size() - miss.size()));
  }
  if (miss.empty()) return;

  std::vector<const SweepTask*> batch;
  batch.reserve(miss.size());
  for (const std::size_t i : miss) batch.push_back(&tasks[i]);

  bool degraded = false;
  const double start = now_s();
  counters.batch_occupancy.observe(static_cast<double>(miss.size()));
  try {
    obs::Span span("run");
    span.arg("cells", static_cast<std::uint64_t>(miss.size()));
    span.arg("batched", std::uint64_t{1});
    auto metrics = runner.run_batch(batch);
    BBRM_REQUIRE_MSG(metrics.size() == batch.size(),
                     "batch runner returned a wrong-sized result");
    const double per_cell_s = (now_s() - start) /
                              static_cast<double>(miss.size());
    for (std::size_t k = 0; k < miss.size(); ++k) {
      TaskResult& r = rows[miss[k]];
      r.task = tasks[miss[k]];
      r.metrics = std::move(metrics[k]);
      r.ok = true;
      r.attempts = 1;
      r.wall_s = per_cell_s;
      counters.cells.add();
      counters.batched_cells.add();
      counters.cell_wall_s.observe(per_cell_s);
      if (!miss_keys[k].empty()) {
        options.cache->store(miss_keys[k], r.metrics);
      }
    }
  } catch (...) {
    degraded = true;
  }
  if (degraded) {
    // Scalar fallback carries the full per-cell attempt budget, so a batch
    // brought down by one bad cell still completes every healthy sibling.
    for (const std::size_t i : miss) {
      const double cell_start = now_s();
      rows[i] = run_one_task(tasks[i], runner, options);
      rows[i].wall_s = now_s() - cell_start;
    }
  }
}

}  // namespace

SweepResult::SweepResult(std::vector<TaskResult> rows)
    : rows_(std::move(rows)) {
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    BBRM_REQUIRE_MSG(rows_[i - 1].task.index < rows_[i].task.index,
                     "sweep rows must be ordered by task index");
  }
}

const TaskResult& SweepResult::row(std::size_t i) const {
  BBRM_REQUIRE(i < rows_.size());
  return rows_[i];
}

std::size_t SweepResult::failed() const {
  std::size_t count = 0;
  for (const auto& r : rows_) count += r.ok ? 0 : 1;
  return count;
}

std::vector<std::string> SweepResult::csv_header() {
  return {"task",     "backend",  "discipline",      "mix",
          "flows",    "buffer_bdp", "min_rtt_s",     "max_rtt_s",
          "seed",     "jain",     "loss_pct",        "occupancy_pct",
          "utilization_pct", "jitter_ms", "status",  "error"};
}

void write_result_csv_row(CsvWriter& csv, const TaskResult& r) {
  const auto& t = r.task;
  csv.write_row(std::vector<std::string>{
      csv_number(static_cast<double>(t.index)),
      to_string(t.backend),
      net::to_string(t.spec.discipline),
      t.mix_label,
      csv_number(static_cast<double>(t.spec.mix.flows.size())),
      csv_number(t.spec.buffer_bdp),
      csv_number(t.spec.min_rtt_s),
      csv_number(t.spec.max_rtt_s),
      std::to_string(t.spec.seed),
      csv_number(r.metrics.jain),
      csv_number(r.metrics.loss_pct),
      csv_number(r.metrics.occupancy_pct),
      csv_number(r.metrics.utilization_pct),
      csv_number(r.metrics.jitter_ms),
      r.ok ? "ok" : "failed",
      r.error,
  });
}

void write_result_json_row(JsonWriter& j, const TaskResult& r) {
  const auto& t = r.task;
  j.begin_object();
  j.key("task").value(static_cast<std::uint64_t>(t.index));
  j.key("backend").value(to_string(t.backend));
  j.key("discipline").value(net::to_string(t.spec.discipline));
  j.key("mix").value(t.mix_label);
  j.key("flows").value(static_cast<std::uint64_t>(t.spec.mix.flows.size()));
  j.key("buffer_bdp").value(t.spec.buffer_bdp);
  j.key("min_rtt_s").value(t.spec.min_rtt_s);
  j.key("max_rtt_s").value(t.spec.max_rtt_s);
  j.key("seed").value(static_cast<std::uint64_t>(t.spec.seed));
  j.key("jain").value(r.metrics.jain);
  j.key("loss_pct").value(r.metrics.loss_pct);
  j.key("occupancy_pct").value(r.metrics.occupancy_pct);
  j.key("utilization_pct").value(r.metrics.utilization_pct);
  j.key("jitter_ms").value(r.metrics.jitter_ms);
  j.key("ok").value(r.ok);
  if (!r.ok) j.key("error").value(r.error);
  j.end_object();
}

void write_sweep_json(std::ostream& out, std::size_t tasks,
                      std::size_t failed,
                      const std::function<void(JsonWriter&)>& emit_rows) {
  JsonWriter j(out);
  j.begin_object();
  j.key("sweep").begin_object();
  j.key("tasks").value(static_cast<std::uint64_t>(tasks));
  j.key("failed").value(static_cast<std::uint64_t>(failed));
  j.end_object();
  j.key("rows").begin_array();
  if (emit_rows) emit_rows(j);
  j.end_array();
  j.end_object();
  out << '\n';
}

void SweepResult::write_csv(std::ostream& out) const {
  CsvWriter csv(out, csv_header());
  for (const auto& r : rows_) write_result_csv_row(csv, r);
}

void SweepResult::write_json(std::ostream& out) const {
  write_sweep_json(out, rows_.size(), failed(), [&](JsonWriter& j) {
    for (const auto& r : rows_) write_result_json_row(j, r);
  });
}

SweepResult run_tasks(const std::vector<SweepTask>& tasks,
                      const SweepOptions& options) {
  BBRM_REQUIRE_MSG(options.max_attempts >= 1,
                   "max_attempts must be at least 1");
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    BBRM_REQUIRE_MSG(tasks[i - 1].index < tasks[i].index,
                     "tasks must have strictly increasing indices");
  }
  const Runner runner = options.runner ? options.runner : backend_runner();

  std::vector<TaskResult> rows(tasks.size());
  std::atomic<std::size_t> completed{0};

  const double sweep_start = now_s();
  ThreadPool pool(options.threads);
  std::vector<WorkUnit> units;
  {
    obs::Span span("batch-form");
    units = plan_units(tasks, runner, options, pool.size());
    span.arg("tasks", static_cast<std::uint64_t>(tasks.size()));
    span.arg("units", static_cast<std::uint64_t>(units.size()));
  }
  pool.parallel_for(units.size(), [&](std::size_t u) {
    const WorkUnit& unit = units[u];
    if (unit.batched) {
      run_batch_unit(tasks, unit, runner, options, rows);
    } else {
      const std::size_t i = unit.members.front();
      const double task_start = now_s();
      TaskResult result = run_one_task(tasks[i], runner, options);
      result.wall_s = now_s() - task_start;
      SweepMetrics::get().cell_wall_s.observe(result.wall_s);
      rows[i] = std::move(result);
    }
    const std::size_t done =
        completed.fetch_add(unit.members.size()) + unit.members.size();
    if (options.progress) options.progress(done, tasks.size());
  });

  SweepResult result(std::move(rows));
  result.set_elapsed_s(now_s() - sweep_start);
  return result;
}

SweepResult run_sweep(const ParameterGrid& grid,
                      const scenario::ExperimentSpec& base,
                      const SweepOptions& options) {
  if (options.refine != nullptr) {
    return adaptive::run_adaptive_sweep(grid, base, *options.refine,
                                        options);
  }
  // Every dense sweep is plan + execute: the same spine the distributed
  // coordinator/workers drain, so the two paths cannot drift apart.
  return orchestrator::execute(
      orchestrator::ExecutionPlan::dense(grid, base, options.base_seed),
      options);
}

}  // namespace bbrmodel::sweep
