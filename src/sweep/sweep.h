// The parallel scenario-sweep engine: fan tasks across a ThreadPool
// through a pluggable Runner, with per-task timeout/retry, an optional
// content-addressed cell cache, and process-level sharding.
//
// Determinism contract: a sweep's SweepResult — including its CSV and JSON
// serializations — depends only on the tasks (grid + base spec + base
// seed) and the runner. Thread count, scheduling, shard layout, cache
// state, and batch grouping (batch_cells) never change a byte, because
// every task's randomness comes from derive_seed(base_seed, task.index),
// all results land in index-addressed slots, rows carry their task index,
// and batch runners are bitwise-identical to their scalar path by
// contract. (Wall-clock and cache/attempt bookkeeping are the exceptions
// and are excluded from both emitters.)
// Consequently the union of shard outputs is byte-identical to one full
// run, and a warm-cache rerun reproduces a cold run exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "metrics/aggregate.h"
#include "sweep/parameter_grid.h"
#include "sweep/runner.h"

namespace bbrmodel {
class CsvWriter;
class JsonWriter;
}

namespace bbrmodel::adaptive {
struct RefinementPolicy;
}

namespace bbrmodel::sweep {

class CellCache;

/// One finished task: the resolved coordinates plus the paper's metrics.
struct TaskResult {
  SweepTask task;
  metrics::AggregateMetrics metrics;
  bool ok = true;          ///< false: every attempt failed or timed out
  std::string error;       ///< failure reason when !ok; single-line ("")
  std::size_t attempts = 0;  ///< runner invocations (0 for cache hits)
  bool cached = false;     ///< served from the cell cache (informational)
  double wall_s = 0.0;     ///< task runtime (informational; not serialized)
};

/// Knobs of run_sweep / run_tasks.
struct SweepOptions {
  /// Worker threads; 0 picks the hardware concurrency.
  std::size_t threads = 0;
  /// Root of every per-task seed (see ParameterGrid::expand).
  std::uint64_t base_seed = 42;
  /// Executes each task; unset falls back to backend_runner(). Failed or
  /// timed-out tasks are reported in the output rows, never aborting the
  /// sweep.
  Runner runner;
  /// Per-attempt wall-clock budget in seconds; 0 disables. A timeout is
  /// terminal for its task — the abandoned invocation may still be
  /// running, and runners are only promised concurrency across distinct
  /// tasks, so no retry is attempted.
  double timeout_s = 0.0;
  /// Runner invocations per task before reporting failure (>= 1).
  /// Retries cover thrown failures, not timeouts (see timeout_s).
  std::size_t max_attempts = 1;
  /// Cells per work unit handed to Runner::run_batch when the runner has
  /// one: 0 = the runner's preferred_batch, 1 = one cell per unit through
  /// run_one, K = up to K eligible cells per unit. Unit size only decides
  /// how cells are scheduled — results are bitwise identical for every
  /// size, a failing unit degrades to per-cell scalar retries, cache
  /// lookups stay per cell, and a per-attempt timeout (timeout_s > 0)
  /// forces one cell per unit so each cell keeps its own wall-clock fence.
  std::size_t batch_cells = 0;
  /// Memoize (runner, backend, spec) cells here; nullptr disables. Only
  /// named runners and cacheable specs participate.
  CellCache* cache = nullptr;
  /// This process's slice of the expanded grid (run_sweep only; the
  /// default {0, 1} runs everything).
  ShardSpec shard;
  /// Optional progress callback, invoked from worker threads after each
  /// task as (completed, total). Must be thread-safe.
  std::function<void(std::size_t, std::size_t)> progress;
  /// Adaptive refinement (run_sweep only; caller-owned, may be null).
  /// When set, the grid is treated as the coarse pass of an adaptive
  /// sweep: a triage pass scores it, flagged regions subdivide per the
  /// policy, and only the refined cell set runs through `runner`. See
  /// adaptive/refiner.h; sharding applies to the fine pass.
  const adaptive::RefinementPolicy* refine = nullptr;
  /// Triage runner of the adaptive coarse pass; unset falls back to
  /// reduced_runner() (closed-form §5 predictions). Ignored without
  /// `refine`.
  Runner triage;
};

/// Completed sweep: one TaskResult per executed task, ordered by task
/// index. Shard runs hold a subsequence of the full grid's indices.
class SweepResult {
 public:
  explicit SweepResult(std::vector<TaskResult> rows);

  const std::vector<TaskResult>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }
  const TaskResult& row(std::size_t i) const;

  /// Number of rows with ok == false.
  std::size_t failed() const;

  /// Total wall-clock of the sweep call (not the sum of task times).
  double elapsed_s() const { return elapsed_s_; }
  void set_elapsed_s(double s) { elapsed_s_ = s; }

  /// The CSV column names of write_csv, in order.
  static std::vector<std::string> csv_header();

  /// One row per task: coordinates + jain, loss, occupancy, utilization,
  /// jitter + status/error. Failed rows serialize empty metric cells.
  /// Deterministic bytes (see the header comment).
  void write_csv(std::ostream& out) const;

  /// The same rows as a JSON array under "rows" (failed rows carry
  /// "ok": false, an "error" string, and null metrics), with totals under
  /// "sweep". Deterministic bytes.
  void write_json(std::ostream& out) const;

 private:
  std::vector<TaskResult> rows_;
  double elapsed_s_ = 0.0;
};

/// Serialize one finished task exactly as SweepResult::write_csv renders
/// its row. Shared with the orchestrator's streaming collector, which
/// appends rows one completed cell at a time instead of materializing a
/// whole SweepResult — both paths produce identical bytes by construction.
void write_result_csv_row(CsvWriter& csv, const TaskResult& row);

/// The JSON sibling: one row object, emitted inside an open "rows" array.
void write_result_json_row(JsonWriter& j, const TaskResult& row);

/// The full JSON document envelope of write_json: totals under "sweep",
/// then whatever `emit_rows` streams into the open "rows" array. Shared
/// with the streaming collector for byte-identical distributed output.
void write_sweep_json(std::ostream& out, std::size_t tasks,
                      std::size_t failed,
                      const std::function<void(JsonWriter&)>& emit_rows);

/// Run every task (already expanded and, if desired, shard-filtered)
/// through options.runner and aggregate. Tasks execute in arbitrary order
/// across options.threads workers; results are returned in task-index
/// order. Task indices must be strictly increasing.
SweepResult run_tasks(const std::vector<SweepTask>& tasks,
                      const SweepOptions& options = {});

/// Convenience: expand `grid` against `base` with options.base_seed, keep
/// options.shard's slice, then run_tasks. With options.refine set the
/// grid is the coarse pass of an adaptive sweep instead (see
/// adaptive/refiner.h).
SweepResult run_sweep(const ParameterGrid& grid,
                      const scenario::ExperimentSpec& base,
                      const SweepOptions& options = {});

}  // namespace bbrmodel::sweep
