// Pluggable experiment runners: the unit of work the sweep engine executes.
//
// PR 1 hard-wired run_tasks to the dumbbell scenario::measure pipeline;
// every new workload (theory tables, parking-lot grids, reduced-model
// triage) then needed its own serial loop. A Runner decouples "which
// experiment does a task mean" from "how tasks are scheduled, retried,
// cached, and serialized": run_tasks applies whatever runner the options
// carry, and everything downstream — thread fan-out, per-task timeout,
// the content-addressed cell cache, shard-invariant CSV/JSON — works for
// any of them.
//
// A runner always provides a scalar `run_one`; it may additionally
// provide `run_batch`, which takes one work unit of several cells and
// must return results bitwise identical to calling `run_one` per cell.
// The scheduler treats work units purely as a scheduling choice:
// per-cell cache lookups, retries, timeouts and statuses are decided
// cell by cell, and a failing unit degrades to scalar runs. Runners built
// with make_runner (benches, tests) are scalar-only.
//
// A runner's `name` doubles as its cache namespace: cells are addressed by
// (runner name, backend, canonical spec bytes), so only named runners
// participate in caching. Leave the name empty for runners whose results
// depend on anything outside the spec (e.g. bench-local parameters decoded
// from the task index) — an unnamed runner is never cached.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "metrics/aggregate.h"
#include "sweep/parameter_grid.h"

namespace bbrmodel::sweep {

/// Maps one fully-resolved task to the paper's aggregate metrics. Must be
/// safe to call concurrently for distinct tasks, and deterministic in the
/// task (the byte-reproducibility contract extends through runners).
using RunnerFn = std::function<metrics::AggregateMetrics(const SweepTask&)>;

/// Maps one work unit of tasks to one metrics entry per task, in order.
/// The results must be bitwise identical to applying the scalar RunnerFn
/// to each task — unit size never changes a result. May throw; the
/// scheduler then retries every cell through the scalar path.
using BatchRunnerFn = std::function<std::vector<metrics::AggregateMetrics>(
    const std::vector<const SweepTask*>&)>;

/// A named runner. The name keys the cell cache; empty = uncacheable.
///
/// Build scalar-only runners with make_runner below — `{name, fn}`
/// aggregate initialization still compiles but trips
/// -Wmissing-field-initializers under the CI's -Werror.
struct Runner {
  std::string name;
  /// Scalar path: always present on a usable runner.
  RunnerFn run_one;
  /// Optional batch path (see BatchRunnerFn). Null = scalar-only.
  BatchRunnerFn run_batch;
  /// Optional per-task eligibility for the batch path (e.g. the backend
  /// dispatcher batches only fluid cells). Null = every task is eligible
  /// whenever run_batch exists.
  std::function<bool(const SweepTask&)> batchable;
  /// Preferred cells per work unit when the caller does not specify one.
  std::size_t preferred_batch = 1;

  explicit operator bool() const { return static_cast<bool>(run_one); }

  /// True if `task` may go through run_batch.
  bool can_batch(const SweepTask& task) const {
    return run_batch && (!batchable || batchable(task));
  }
};

/// Scalar-only runner from a name and a function — the compatibility
/// factory for benches and tests; equivalent to the pre-batch Runner.
inline Runner make_runner(std::string name, RunnerFn fn) {
  Runner r;
  r.name = std::move(name);
  r.run_one = std::move(fn);
  return r;
}

/// Fluid-model ("Model") runner: scenario::run_fluid on the task's spec,
/// regardless of task.backend. Batch-capable: run_batch runs a work unit's
/// cells one after another (scenario::run_fluid_batch).
Runner fluid_runner();

/// Packet-simulator ("Experiment") runner: scenario::run_packet.
Runner packet_runner();

/// Reduced/theory-model runner: closed-form §5 equilibrium predictions for
/// homogeneous BBRv1/BBRv2 mixes (Theorems 1, 3, 4) — utilization,
/// occupancy, loss, and per-flow rates at the equilibrium, with
/// aux = {q*_pkts, x*_pps}. Thousands of cells per second; useful for
/// sketching a grid's shape before paying for simulations.
Runner reduced_runner();

/// The default: dispatch on task.backend (kFluid → fluid_runner,
/// kPacket → packet_runner, kReduced → reduced_runner). Batch-capable for
/// fluid-backend tasks only.
Runner backend_runner();

}  // namespace bbrmodel::sweep
