#include "sweep/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <optional>

#include "adaptive/refiner.h"
#include "common/csv.h"
#include "common/deadline.h"
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

/// One runner invocation, inline on the calling thread. With a budget the
/// attempt runs under a ScopedDeadline that the engine loops poll; an
/// attempt that overruns it is a timeout, whether a poll stopped it or the
/// runner returned late.
AttemptOutcome run_attempt(const RunnerFn& fn, const SweepTask& task,
                           double timeout_s) {
  std::optional<ScopedDeadline> deadline;
  if (timeout_s > 0.0) deadline.emplace(timeout_s);
  AttemptOutcome outcome;
  try {
    outcome = {fn(task), true, ""};
  } catch (const std::exception& e) {
    outcome = {failed_metrics(), false, single_line(e.what())};
  } catch (...) {
    outcome = {failed_metrics(), false, "unknown runner error"};
  }
  if (deadline && deadline->expired()) {
    outcome = {failed_metrics(), false,
               "timeout after " + csv_number(timeout_s) + " s"};
  }
  return outcome;
}

/// Hot-path metric handles, resolved once per thread (registry lookups
/// and shard registration take a lock; updates never do). Per-cell
/// metrics write through single-writer shards — plain load + store — so
/// the instrumented path costs ~2 ns per counter even with a pool of
/// sweep threads. Rare events (retries, failures) stay on the shared
/// cells.
struct SweepMetrics {
  obs::Counter::Shard& cells =
      obs::Registry::global().counter("sweep.cells").shard();
  obs::Counter::Shard& cache_hits =
      obs::Registry::global().counter("sweep.cache_hits").shard();
  obs::Counter::Shard& cache_misses =
      obs::Registry::global().counter("sweep.cache_misses").shard();
  obs::Counter& retries = obs::Registry::global().counter("sweep.retries");
  obs::Counter& failures = obs::Registry::global().counter("sweep.failures");
  obs::Histogram::Shard& cell_wall_s =
      obs::Registry::global().histogram("sweep.cell_wall_s").shard();

  static SweepMetrics& get() {
    static thread_local SweepMetrics metrics;
    return metrics;
  }
};

/// A cell's lifecycle: cache probe, bounded attempts, cache fill.
/// run_cell adds the wall clock around it.
TaskResult execute_cell(const SweepTask& task, const Runner& runner,
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

TaskResult run_cell(const SweepTask& task, const Runner& runner,
                    const SweepOptions& options) {
  const double start = now_s();
  TaskResult result = execute_cell(task, runner, options);
  result.wall_s = now_s() - start;
  SweepMetrics::get().cell_wall_s.observe(result.wall_s);
  return result;
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
  // One pool task per cell, handed out in index order: backend is the
  // outermost grid axis, so the long fluid cells start first.
  pool.parallel_for(tasks.size(), [&](std::size_t i) {
    rows[i] = run_cell(tasks[i], runner, options);
    const std::size_t done = completed.fetch_add(1) + 1;
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
