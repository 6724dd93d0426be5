// The benchmark's workloads: pinned inputs and one timed pass of each.
//
// Every ExperimentSpec field, grid axis, thread count, batching knob,
// segment size, lease and poll interval is written out here instead of
// taken from a library or CLI default, so a later change to a default
// cannot silently change what a workload measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "orchestrator/execution_plan.h"
#include "spans.h"

namespace perfbench {

/// Threads of `execute` and claim loops of `run_worker`, in every workload.
constexpr std::size_t kThreads = 4;

/// The workload seed whose output digests are recorded (bbrsweep's
/// default --seed).
constexpr std::uint64_t kDefaultSeed = 42;

struct Workload {
  const char* name;
  /// The workload's cells for `seed` (the sweep base seed); `smoke`
  /// shrinks the inputs for the benchmark's self-test.
  bbrmodel::orchestrator::ExecutionPlan (*plan)(std::uint64_t seed,
                                                bool smoke);
  /// true: seed a queue, load the plan worker-side, run_worker, collect.
  /// false: orchestrator::execute, then SweepResult::write_csv/write_json.
  bool queue;
  std::size_t segment_cells;  ///< WorkQueue::seed segment size (queue)
  std::size_t claim_batch;    ///< WorkerConfig::batch (queue)
  std::size_t batch_cells;    ///< SweepOptions / WorkerConfig batch_cells
  std::size_t check_cells;    ///< cells the output check re-runs
};

/// The workload called `name`, or nullptr.
const Workload* find_workload(const std::string& name);

/// What one pass produced. Times cover everything a user waits for once
/// the plan is built: the phase calls and writing the outputs.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;         ///< process user + sys over the pass
  double host_scale = 1.0;    ///< factor for the pass's times (calibrate.h)
  double peak_rss_mb = 0.0;   ///< process high-water mark at the pass's end
  std::size_t cells = 0;
  std::size_t failed = 0;     ///< cells the library reported as failed
  std::string csv;            ///< output bytes, read back after timing
  std::string json;
  std::uintmax_t plan_bytes = 0;   ///< stored plan size (queue)
  std::size_t queue_files = 0;     ///< regular files after the drain
  std::vector<SpanRecord> spans;   ///< traced passes only
};

/// Run one pass of `plan` (built for `seed`) in the fresh directory `dir`,
/// which is removed afterwards. A traced pass records spans around each
/// phase call and runs the cells through an instrumented copy of the
/// backend runner.
PassResult run_pass(const Workload& w,
                    const bbrmodel::orchestrator::ExecutionPlan& plan,
                    std::uint64_t seed, const std::filesystem::path& dir,
                    bool traced);

/// Process user + sys CPU seconds so far.
double cpu_seconds();

}  // namespace perfbench
