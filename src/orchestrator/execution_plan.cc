#include "orchestrator/execution_plan.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <utility>

#include "adaptive/refiner.h"
#include "common/csv.h"
#include "common/parse.h"
#include "common/require.h"
#include "scenario/spec_codec.h"
#include "sweep/workloads.h"

namespace bbrmodel::orchestrator {

namespace {

constexpr const char* kVersionLine = "bbrm-plan=1";

sweep::Backend parse_backend_name(std::string_view name) {
  const auto backend = sweep::backend_from_name(std::string(name));
  BBRM_REQUIRE_MSG(backend.has_value(), "execution plan: unknown backend '" +
                                            std::string(name) + "'");
  return *backend;
}

/// Walks a serialized plan in place: every line and spec is a view into
/// the one text, never a copy of it.
class PlanReader {
 public:
  explicit PlanReader(std::string_view text) : rest_(text) {}

  /// The next line without its '\n' (the last may lack one); false at the
  /// end of the text.
  bool next_line(std::string_view& line) {
    if (rest_.empty()) return false;
    const auto newline = rest_.find('\n');
    line = rest_.substr(0, newline);
    rest_.remove_prefix(newline == std::string_view::npos ? rest_.size()
                                                          : newline + 1);
    return true;
  }

  /// A "key=value" line's value; fails loudly on the wrong key — plan
  /// parsing must reject shuffled or truncated documents, not misread
  /// them.
  std::string_view expect_field(std::string_view key) {
    std::string_view line;
    BBRM_REQUIRE_MSG(next_line(line), "execution plan: truncated before '" +
                                          std::string(key) + "'");
    BBRM_REQUIRE_MSG(line.size() > key.size() && line[key.size()] == '=' &&
                         line.substr(0, key.size()) == key,
                     "execution plan: expected '" + std::string(key) +
                         "=...', got '" + std::string(line) + "'");
    return line.substr(key.size() + 1);
  }

  /// The next `n` raw bytes, or nullopt when fewer remain.
  std::optional<std::string_view> take(std::size_t n) {
    if (rest_.size() < n) return std::nullopt;
    const std::string_view bytes = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return bytes;
  }

 private:
  std::string_view rest_;
};

std::size_t parse_size(std::string_view text, const std::string& what) {
  return static_cast<std::size_t>(
      parse_u64(text, "execution plan " + what));
}

/// The version line and the runner/cells header fields.
ExecutionPlan::Header read_header(PlanReader& in) {
  std::string_view line;
  BBRM_REQUIRE_MSG(in.next_line(line) && line == kVersionLine,
                   "execution plan: expected version line '" +
                       std::string(kVersionLine) + "'");
  ExecutionPlan::Header header;
  header.runner = std::string(in.expect_field("runner"));
  header.cells = parse_size(in.expect_field("cells"), "count");
  return header;
}

}  // namespace

ExecutionPlan::ExecutionPlan(std::vector<sweep::SweepTask> cells,
                             std::string runner_name)
    : cells_(std::move(cells)), runner_name_(std::move(runner_name)) {
  for (std::size_t i = 1; i < cells_.size(); ++i) {
    BBRM_REQUIRE_MSG(cells_[i - 1].index < cells_[i].index,
                     "execution plan cells must have strictly increasing "
                     "task indices");
  }
}

ExecutionPlan ExecutionPlan::dense(const sweep::ParameterGrid& grid,
                                   const scenario::ExperimentSpec& base,
                                   std::uint64_t base_seed,
                                   std::string runner_name) {
  return ExecutionPlan(grid.expand(base, base_seed), std::move(runner_name));
}

ExecutionPlan ExecutionPlan::adaptive(const adaptive::GridRefiner& refiner,
                                      const sweep::SweepOptions& exec,
                                      std::string runner_name) {
  return from_refinement(refiner.plan(exec), exec.base_seed,
                         std::move(runner_name));
}

ExecutionPlan ExecutionPlan::adaptive(const sweep::ParameterGrid& grid,
                                      const scenario::ExperimentSpec& base,
                                      const adaptive::RefinementPolicy& policy,
                                      const sweep::SweepOptions& exec,
                                      std::string runner_name) {
  adaptive::GridRefiner refiner(grid, base, policy);
  if (exec.triage) refiner.set_triage(exec.triage);
  return adaptive(refiner, exec, std::move(runner_name));
}

ExecutionPlan ExecutionPlan::from_refinement(
    const adaptive::RefinementPlan& plan, std::uint64_t base_seed,
    std::string runner_name) {
  return ExecutionPlan(plan.tasks(base_seed), std::move(runner_name));
}

ExecutionPlan ExecutionPlan::from_tasks(std::vector<sweep::SweepTask> tasks,
                                        std::string runner_name) {
  return ExecutionPlan(std::move(tasks), std::move(runner_name));
}

const sweep::SweepTask& ExecutionPlan::cell(std::size_t position) const {
  BBRM_REQUIRE(position < cells_.size());
  return cells_[position];
}

const sweep::SweepTask& ExecutionPlan::cell_by_index(
    std::size_t task_index) const {
  const auto it = std::lower_bound(
      cells_.begin(), cells_.end(), task_index,
      [](const sweep::SweepTask& t, std::size_t i) { return t.index < i; });
  BBRM_REQUIRE_MSG(it != cells_.end() && it->index == task_index,
                   "execution plan has no cell with task index " +
                       std::to_string(task_index));
  return *it;
}

std::string ExecutionPlan::describe_cell(std::size_t task_index) const {
  const sweep::SweepTask& t = cell_by_index(task_index);
  std::string out = "backend=" + sweep::to_string(t.backend) +
                    " discipline=" + net::to_string(t.spec.discipline) +
                    " mix=" + t.mix_label +
                    " flows=" + std::to_string(t.spec.mix.flows.size()) +
                    " buffer_bdp=" + csv_number(t.spec.buffer_bdp) +
                    " rtt_s=" + csv_number(t.spec.min_rtt_s) + ":" +
                    csv_number(t.spec.max_rtt_s) +
                    " spec=" + scenario::canonical_spec_hash(t.spec);
  return out;
}

std::string ExecutionPlan::serialize() const {
  std::string out = kVersionLine;
  out += "\nrunner=";
  out += runner_name_;
  out += "\ncells=";
  out += std::to_string(cells_.size());
  out += '\n';
  for (const auto& cell : cells_) {
    BBRM_REQUIRE_MSG(cell.mix_label.find('\n') == std::string::npos,
                     "mix labels must be single-line");
    const std::string spec = scenario::canonical_spec_string(cell.spec);
    out += "cell=";
    out += std::to_string(cell.index);
    out += "\nbackend=";
    out += sweep::to_string(cell.backend);
    out += "\nmix=";
    out += cell.mix_label;
    out += "\nspec-bytes=";
    out += std::to_string(spec.size());
    out += '\n';
    out += spec;  // canonical bytes end in '\n' themselves
  }
  return out;
}

ExecutionPlan ExecutionPlan::parse(std::string_view bytes) {
  PlanReader in(bytes);
  Header header = read_header(in);

  std::vector<sweep::SweepTask> cells;
  cells.reserve(header.cells);
  for (std::size_t i = 0; i < header.cells; ++i) {
    sweep::SweepTask task;
    task.index = parse_size(in.expect_field("cell"), "cell index");
    task.backend = parse_backend_name(in.expect_field("backend"));
    task.mix_label = std::string(in.expect_field("mix"));
    const std::size_t spec_bytes =
        parse_size(in.expect_field("spec-bytes"), "spec size");
    const auto spec = in.take(spec_bytes);
    BBRM_REQUIRE_MSG(spec.has_value(),
                     "execution plan: truncated spec bytes of cell " +
                         std::to_string(task.index));
    task.spec = scenario::parse_canonical_spec(*spec);
    cells.push_back(std::move(task));
  }
  std::string_view line;
  BBRM_REQUIRE_MSG(!in.next_line(line) || line.empty(),
                   "execution plan: trailing bytes after the last cell");
  return ExecutionPlan(std::move(cells), std::move(header.runner));
}

ExecutionPlan::Header ExecutionPlan::peek_header(std::string_view bytes) {
  PlanReader in(bytes);
  return read_header(in);
}

sweep::SweepResult execute(const ExecutionPlan& plan,
                           const sweep::SweepOptions& options) {
  sweep::SweepOptions exec = options;
  exec.refine = nullptr;  // the plan is final; never re-plan
  exec.shard = {};        // applied below, not inside run_tasks
  if (!exec.runner && !plan.runner_name().empty()) {
    exec.runner = sweep::runner_by_name(plan.runner_name());
  }
  if (options.shard.count == 1 && options.shard.index == 0) {
    // The common unsharded path runs the plan's cells in place — no copy
    // of every spec just to pass them through.
    return sweep::run_tasks(plan.cells(), exec);
  }
  return sweep::run_tasks(
      sweep::filter_shard(plan.cells(), options.shard), exec);
}

}  // namespace bbrmodel::orchestrator
