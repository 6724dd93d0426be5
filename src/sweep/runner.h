// Pluggable experiment runners: the unit of work the sweep engine executes.
//
// PR 1 hard-wired run_tasks to the dumbbell scenario::measure pipeline;
// every new workload (theory tables, parking-lot grids, reduced-model
// triage) then needed its own serial loop. A Runner decouples "which
// experiment does a task mean" from "how tasks are scheduled, retried,
// cached, and serialized": run_tasks applies whatever runner the options
// carry, and everything downstream — thread fan-out, per-task timeout,
// the content-addressed cell cache, shard-invariant CSV/JSON — works for
// any of them. The engine calls `run_one` once per cell attempt, inline
// on the thread that runs the cell (see run_cell in sweep/sweep.h).
//
// A runner's `name` doubles as its cache namespace: cells are addressed by
// (runner name, backend, canonical spec bytes), so only named runners
// participate in caching. Leave the name empty for runners whose results
// depend on anything outside the spec (e.g. bench-local parameters decoded
// from the task index) — an unnamed runner is never cached.
#pragma once

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

/// The type of Runner::run_batch, which nothing calls.
using BatchRunnerFn = std::function<std::vector<metrics::AggregateMetrics>(
    const std::vector<const SweepTask*>&)>;

/// A named runner. The name keys the cell cache; empty = uncacheable.
///
/// Build runners with make_runner below — `{name, fn}` aggregate
/// initialization still compiles but trips -Wmissing-field-initializers
/// under the CI's -Werror.
struct Runner {
  std::string name;
  /// Runs one cell: always present on a usable runner.
  RunnerFn run_one;
  /// Unused: no library code reads it; every cell goes through run_one.
  /// It stays only because perfbench/ still assigns it, and ROADMAP item
  /// 4(a) deletes it.
  BatchRunnerFn run_batch;

  explicit operator bool() const { return static_cast<bool>(run_one); }
};

/// A runner from a name and a function, for benches and tests.
inline Runner make_runner(std::string name, RunnerFn fn) {
  Runner r;
  r.name = std::move(name);
  r.run_one = std::move(fn);
  return r;
}

/// Fluid-model ("Model") runner: scenario::run_fluid on the task's spec,
/// regardless of task.backend.
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
/// kPacket → packet_runner, kReduced → reduced_runner).
Runner backend_runner();

}  // namespace bbrmodel::sweep
