// The ExecutionPlan: one canonical cell set for every way a sweep can run.
//
// Before this layer the stack had three divergent entry paths — dense
// run_sweep, adaptive run_adaptive_sweep, and the benches' ad-hoc
// run_tasks loops — each expanding, sharding, and executing on its own.
// An ExecutionPlan collapses them: every source (dense ParameterGrid
// expansion, the adaptive GridRefiner, hand-built task lists) produces the
// same artifact — a deterministically ordered, fully resolved cell set,
// each cell carrying its final spec (seed included) — and execute() is the
// single path from a plan to a SweepResult. Sharding, caching, timeout,
// retry, and the byte-reproducibility contract all live behind that one
// door, which is what lets the distributed work queue (work_queue.h) drain
// the very same cells on any number of machines and still merge
// byte-identically to a single-process run.
//
// Plans serialize to deterministic bytes (the canonical spec codec per
// cell), so a coordinator can hand a plan to remote workers as a file, a
// resumed queue can verify it is continuing the *same* plan, and
// `bbrsweep merge --plan` can name exactly which cells a broken union is
// missing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/sweep.h"

namespace bbrmodel::adaptive {
class GridRefiner;
struct RefinementPlan;
struct RefinementPolicy;
}  // namespace bbrmodel::adaptive

namespace bbrmodel::orchestrator {

/// The canonical, fully resolved cell set of one sweep. Cells are ordered
/// by strictly increasing task index and carry their final specs: a plan
/// is position-independent (no grid, policy, or base spec needed to run
/// it), which is what makes it shippable to worker processes.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  /// Dense expansion of a grid: cells in grid order, seeds derived from
  /// (base_seed, index) per the engine contract. `runner_name` is what a
  /// detached worker resolves through sweep::runner_by_name; the default
  /// dispatches on each cell's backend axis.
  static ExecutionPlan dense(const sweep::ParameterGrid& grid,
                             const scenario::ExperimentSpec& base,
                             std::uint64_t base_seed,
                             std::string runner_name = "backend");

  /// Adaptive source: run the refiner's triage rounds (execution detail
  /// from `exec`: threads, cache, triage seeding) and materialize the
  /// refined, spec-byte-ordered cell set.
  static ExecutionPlan adaptive(const adaptive::GridRefiner& refiner,
                                const sweep::SweepOptions& exec,
                                std::string runner_name = "backend");

  /// Convenience overload building the refiner from (grid, base, policy);
  /// exec.triage supplies a non-default triage runner.
  static ExecutionPlan adaptive(const sweep::ParameterGrid& grid,
                                const scenario::ExperimentSpec& base,
                                const adaptive::RefinementPolicy& policy,
                                const sweep::SweepOptions& exec,
                                std::string runner_name = "backend");

  /// A finished refinement plan, materialized with base_seed.
  static ExecutionPlan from_refinement(const adaptive::RefinementPlan& plan,
                                       std::uint64_t base_seed,
                                       std::string runner_name = "backend");

  /// Ad-hoc cells (the benches' bespoke loops). Indices must strictly
  /// increase; specs may be uncacheable (bbr_init), but such plans cannot
  /// serialize.
  static ExecutionPlan from_tasks(std::vector<sweep::SweepTask> tasks,
                                  std::string runner_name = "");

  const std::vector<sweep::SweepTask>& cells() const { return cells_; }
  std::size_t size() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }

  /// Cell by plan position (not by task index).
  const sweep::SweepTask& cell(std::size_t position) const;

  /// Find a cell by its task index; throws when the plan has no such cell.
  const sweep::SweepTask& cell_by_index(std::size_t task_index) const;

  /// The runner a detached worker resolves by name; empty = in-process
  /// only (the caller supplies SweepOptions::runner).
  const std::string& runner_name() const { return runner_name_; }

  /// One-line human identity of a cell: coordinates + the canonical spec
  /// key (scenario::canonical_spec_hash). Used by merge diagnostics and
  /// queue logs.
  std::string describe_cell(std::size_t task_index) const;

  /// Deterministic byte serialization (version line, runner, then each
  /// cell's index/backend/mix label and canonical spec bytes). Equal plans
  /// serialize to equal bytes — the resume check of a durable queue is a
  /// byte compare. Requires cacheable specs.
  std::string serialize() const;

  /// Inverse of serialize(). Throws PreconditionError on malformed input.
  static ExecutionPlan parse(std::string_view bytes);

  /// The header fields of a serialized plan, parsed from its first lines
  /// alone — a million-cell plan's size and runner cost three lines, not
  /// a full parse of every spec. `bytes` may be any prefix of the
  /// document that covers the three header lines (callers read the first
  /// few hundred bytes of a plan file, never the whole thing). Throws
  /// PreconditionError on malformed input.
  struct Header {
    std::string runner;
    std::size_t cells = 0;
  };
  static Header peek_header(std::string_view bytes);

 private:
  ExecutionPlan(std::vector<sweep::SweepTask> cells, std::string runner_name);

  std::vector<sweep::SweepTask> cells_;
  std::string runner_name_;
};

/// The single execution path from a plan to a result: apply
/// options.shard's slice, resolve the runner (options.runner, else the
/// plan's named runner, else backend dispatch), and run the cells through
/// sweep::run_tasks — caching, timeout, retry, and thread fan-out
/// included. The plan is final: options.refine is ignored.
sweep::SweepResult execute(const ExecutionPlan& plan,
                           const sweep::SweepOptions& options = {});

}  // namespace bbrmodel::orchestrator
