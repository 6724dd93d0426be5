#include "cli/cli.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/parse.h"
#include "sweep/workloads.h"

namespace bbrmodel::cli {
namespace {

// ---------------------------------------------------------------- values --

/// Every `sep`-separated part of `text`, empty ones included.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t from = 0;
  for (auto at = text.find(sep); at != std::string::npos;
       from = at + 1, at = text.find(sep, from)) {
    parts.push_back(text.substr(from, at - from));
  }
  parts.push_back(text.substr(from));
  return parts;
}

/// "A<sep>B" as its two halves; `want` names the grammar otherwise.
std::pair<std::string, std::string> halves(const std::string& text, char sep,
                                           const char* want) {
  const auto parts = split(text, sep);
  if (parts.size() != 2) throw UsageError(std::string("want ") + want);
  return {parts[0], parts[1]};
}

std::uint64_t u64(const std::string& text) {
  const auto v = try_parse_u64(text);
  if (!v) throw UsageError("'" + text + "' is not an integer >= 0");
  return *v;
}

double real(const std::string& text) {
  const auto v = try_parse_double(text);
  if (!v || !std::isfinite(*v)) {
    throw UsageError("'" + text + "' is not a finite number");
  }
  return *v;
}

/// One parsed value per comma-separated item of a LIST flag.
template <typename Parse>
auto items(const std::string& text, Parse parse) {
  std::vector<decltype(parse(text))> out;
  for (const auto& item : split(text, ',')) out.push_back(parse(item));
  return out;
}

/// Resolve `name` among named choices, or throw listing them all.
template <typename T>
T choose(const char* what,
         const std::vector<std::pair<std::string, T>>& choices,
         const std::string& name) {
  std::string valid;
  for (const auto& [key, value] : choices) {
    if (name == key) return value;
    valid += (valid.empty() ? "" : ", ") + key;
  }
  throw UsageError(std::string("unknown ") + what + " '" + name +
                   "' (valid: " + valid + ")");
}

scenario::CcaKind parse_cca(const std::string& name) {
  return choose<scenario::CcaKind>("CCA",
                                   {{"bbrv1", scenario::CcaKind::kBbrv1},
                                    {"bbrv2", scenario::CcaKind::kBbrv2},
                                    {"cubic", scenario::CcaKind::kCubic},
                                    {"reno", scenario::CcaKind::kReno}},
                                   name);
}

sweep::MixSpec parse_mix(const std::string& token) {
  // Check the mix's shape before resolving CCAs, so "a+b+c" or "a/b+c"
  // gets the mix grammar in its error, not an unknown-CCA complaint.
  const char* grammar = "CCA, CCA/CCA, CCA+CCA, or CCA/CCA/CCA...";
  if (token.find('+') != std::string::npos) {
    // "lead+rest": flow 0 runs lead, everyone else rest (parking-lot
    // long flow vs uniform cross traffic).
    if (token.find('/') != std::string::npos) {
      throw UsageError(std::string("want ") + grammar);
    }
    const auto [lead, rest] = halves(token, '+', grammar);
    return sweep::leader_mix(parse_cca(lead), parse_cca(rest));
  }
  std::vector<scenario::CcaKind> kinds;
  for (const auto& kind : split(token, '/')) kinds.push_back(parse_cca(kind));
  // Two kinds keep the paper's half/half split; three or more cycle per
  // position (flow i runs kinds[i % k]).
  if (kinds.size() == 1) return sweep::homogeneous_mix(kinds[0]);
  if (kinds.size() == 2) return sweep::half_half_mix(kinds[0], kinds[1]);
  return sweep::cyclic_mix(std::move(kinds));
}

sweep::RttRange parse_rtt(const std::string& token) {
  const auto [lo, hi] = halves(token, ':', "min:max in ms");
  // Divide, not multiply by 1e-3: 9 / 1e3 is the double nearest 0.009.
  sweep::RttRange range;
  range.min_s = real(lo) / 1e3;
  range.max_s = real(hi) / 1e3;
  if (!(range.min_s > 0.0 && range.max_s >= range.min_s)) {
    throw UsageError("want 0 < min <= max");
  }
  return range;
}

net::Discipline parse_discipline(const std::string& name) {
  using net::Discipline;
  return choose<Discipline>(
      "discipline",
      {{"droptail", Discipline::kDropTail}, {"red", Discipline::kRed}}, name);
}

sweep::Backend parse_backend(const std::string& name) {
  // backend_from_name is the one name table; only the message lives here.
  if (const auto backend = sweep::backend_from_name(name)) return *backend;
  throw UsageError("unknown backend '" + name +
                   "' (valid: fluid, packet, reduced)");
}

std::uintmax_t parse_bytes(std::string text) {
  // "1024", "512M", "2g": an optional binary suffix.
  const auto suffix = text.empty() ? std::string::npos
                                   : std::string("KMGkmg").find(text.back());
  std::uintmax_t unit = 1;
  if (suffix != std::string::npos) {
    unit <<= 10 * (suffix % 3 + 1);
    text.pop_back();
  }
  const std::uint64_t n = u64(text);
  if (n > UINTMAX_MAX / unit) throw UsageError("the byte count overflows");
  return n * unit;
}

/// What `text` should have been, or nullptr when it passes `check`.
const char* violation(Check check, const std::string& text) {
  const auto n = try_parse_u64(text);
  const auto x = try_parse_double(text);
  // NaN fails every comparison below, so it stands for "not finite".
  const double v = x && std::isfinite(*x) ? *x : std::nan("");
  if (check == Check::kText && text.empty()) return "a non-empty value";
  if (check == Check::kCount && !n) return "an integer >= 0";
  if (check == Check::kCountMin1 && !(n && *n > 0)) return "an integer >= 1";
  if (check == Check::kPositive && !(v > 0.0)) return "a finite number > 0";
  if (check == Check::kNonNegative && !(v >= 0.0)) {
    return "a finite number >= 0";
  }
  return nullptr;
}

// ------------------------------------------------------------- the table --

constexpr Commands kSw = bit(Command::kSweep), kPl = bit(Command::kPlan),
                   kCo = bit(Command::kCoordinator),
                   kWo = bit(Command::kWorker), kFl = bit(Command::kFleet),
                   kSt = bit(Command::kStatus), kTr = bit(Command::kTrace),
                   kMe = bit(Command::kMerge), kCa = bit(Command::kCache),
                   kAll = kFwd - 1;
/// The flags that shape the cell set.
constexpr Commands kCells = kSw | kPl | kCo;
/// The flags of everything that runs cells; workers get them from fleet.
constexpr Commands kRuns = kCells | kWo | kFl | kFwd;
/// Lease and poll flags of the queue's writers.
constexpr Commands kQueue = kCo | kWo | kFl | kFwd;
constexpr Commands kDrain = kWo | kFl | kFwd;

// The --help sections.
const char kAxes[] = "Grid axes (comma-separated lists, default: Figs. 6-10):";
const char kScenario[] = "Scenario constants:", kWorkload[] = "Workload:";
const char kAdaptive[] = "Adaptive refinement (--adaptive, and `plan`):";
const char kExecution[] = "Execution:", kOutput[] = "Output:";
const char kQueueDir[] = "Work queue (any number of machines sharing DIR):";
const char kWorkerOnly[] = "worker:", kFleetOnly[] = "fleet:";
const char kTools[] = "status, trace, merge, cache:";

using S = const std::string&;

const std::vector<Flag> kFlags = {
    {kAxes, "--mixes", "LIST", kCells, Check::kText,
     "bbrv1,bbrv1/bbrv2,bbrv1/cubic,bbrv1/reno,bbrv2,bbrv2/cubic,bbrv2/reno",
     "CCA mixes: homogeneous (bbrv1, bbrv2, cubic, reno), half/half "
     "(bbrv1/cubic), leader+rest (bbrv1+reno: flow 0 vs uniform cross "
     "traffic), or cyclic patterns of 3+ CCAs (bbrv1/cubic/reno: flow i runs "
     "the i-th CCA, wrapping)",
     [](Options& o, S v) { o.grid.mixes = items(v, parse_mix); }},
    {kAxes, "--buffers", "LIST", kCells, Check::kNonNegative, "1,2,3,4,5,6,7",
     "bottleneck buffers in BDP",
     [](Options& o, S v) { o.grid.buffers_bdp = items(v, real); }},
    {kAxes, "--flows", "LIST", kCells, Check::kCountMin1, "10",
     "flow counts N",
     [](Options& o, S v) { o.grid.flow_counts = items(v, u64); }},
    {kAxes, "--rtts", "LIST", kCells, Check::kText, "30:40",
     "RTT spreads as min:max in ms",
     [](Options& o, S v) { o.grid.rtt_ranges = items(v, parse_rtt); }},
    {kAxes, "--rtt-dist", "NAME", kCells, Check::kText, "uniform",
     "per-flow RTT distribution across each spread: uniform (linear "
     "spacing), pareto (heavy tail), bimodal (half at min, half at max)",
     [](Options& o, S v) {
       o.rtt_dist = choose<sweep::RttDist>(
           "RTT distribution",
           {{"uniform", sweep::RttDist::kUniform},
            {"pareto", sweep::RttDist::kPareto},
            {"bimodal", sweep::RttDist::kBimodal}},
           v);
     }},
    {kAxes, "--disciplines", "LIST", kCells, Check::kText, "droptail,red",
     "queue disciplines: droptail, red",
     [](Options& o, S v) {
       o.grid.disciplines = items(v, parse_discipline);
     }},
    {kAxes, "--backends", "LIST", kCells, Check::kText, "fluid,packet",
     "fluid, packet, reduced (reduced = instant closed-form §5 predictions "
     "for homogeneous BBR mixes)",
     [](Options& o, S v) { o.grid.backends = items(v, parse_backend); }},

    {kScenario, "--capacity", "MBPS", kCells, Check::kPositive, "100",
     "bottleneck capacity",
     [](Options& o, S v) { o.base.capacity_pps = mbps_to_pps(real(v)); }},
    {kScenario, "--duration", "S", kCells, Check::kPositive, "5",
     "simulated seconds per experiment",
     [](Options& o, S v) { o.base.duration_s = real(v); }},
    {kScenario, "--step", "US", kCells, Check::kPositive, "50",
     "fluid solver step in microseconds",
     // Divide, not multiply by 1e-6: 50 / 1e6 is FluidConfig's 50e-6.
     [](Options& o, S v) { o.base.fluid.step_s = real(v) / 1e6; }},

    {kWorkload, "--workload", "NAME", kCells, Check::kText, "dumbbell",
     "dumbbell (the paper's validation topology, dispatched per the "
     "--backends axis) or parking-lot (paper §8 multi-bottleneck: flow 0 of "
     "each mix is the long flow, flows 1..n-1 are the per-hop cross flows, "
     "so --flows N sweeps N-1 hops and cyclic --mixes paint the hops in CCA "
     "patterns)",
     [](Options& o, S v) {
       o.runner_name = choose<std::string>(
           "workload",
           {{"dumbbell", "backend"}, {"parking-lot", "parking-lot"}}, v);
     }},

    {kAdaptive, "--adaptive", nullptr, kCells, Check::kSwitch, nullptr,
     "triage the grid with a cheap runner, subdivide only the regions where "
     "the refine metrics vary, then run the expensive simulations on the "
     "refined cells only (`plan` always triages)",
     [](Options& o, S) { o.adaptive = true; }},
    {kAdaptive, "--triage", "NAME", kCells, Check::kText, nullptr,
     "triage runner: reduced (closed-form §5), fluid, packet, backend; the "
     "default is reduced, or the --workload's own runner for parking-lot",
     [](Options& o, S v) { o.run.triage = sweep::runner_by_name(v); }},
    {kAdaptive, "--triage-duration", "S", kCells, Check::kNonNegative, "0",
     "simulated seconds for triage runs only (0 = same as --duration); "
     "cheapens a fluid/packet triage",
     [](Options& o, S v) { o.triage_duration_s = real(v); }},
    {kAdaptive, "--refine-metric", "LIST", kCells, Check::kText,
     "jain,loss,utilization,occupancy",
     "metrics scored for neighborhood variation: jain, loss, occupancy, "
     "utilization, jitter, aux0",
     [](Options& o, S v) {
       o.policy.metrics = items(v, adaptive::parse_refine_metric);
     }},
    {kAdaptive, "--refine-threshold", "X", kCells, Check::kNonNegative, "0.05",
     "normalized variation at or above which an interval subdivides",
     [](Options& o, S v) { o.policy.threshold = real(v); }},
    {kAdaptive, "--refine-depth", "N", kCells, Check::kCount, "3",
     "refinement rounds after the coarse pass",
     [](Options& o, S v) { o.policy.max_depth = u64(v); }},
    {kAdaptive, "--refine-budget", "N", kCells, Check::kCount, "4096",
     "total cell budget incl. the coarse pass (never clamps below the "
     "coarse grid)",
     [](Options& o, S v) { o.policy.max_cells = u64(v); }},

    {kExecution, "--threads", "N", kRuns, Check::kCount, "0",
     "worker threads; 0 = hardware concurrency",
     [](Options& o, S v) { o.run.threads = u64(v); }},
    {kExecution, "--batch-cells", "K", kSw | kDrain, Check::kCount, nullptr,
     "cells per work unit, for runners that take several per call (fluid "
     "runs a unit's cells one after another on one thread): 0 = the "
     "runner's choice (default for single-process runs), 1 = one cell "
     "(default for `worker`), K = up to K. Output bytes never change",
     [](Options& o, S v) {
       o.run.batch_cells = o.worker.batch_cells = u64(v);
     }},
    {kExecution, "--seed", "S", kCells, Check::kCount, "42",
     "base seed; per-task seeds derive from it",
     [](Options& o, S v) { o.run.base_seed = u64(v); }},
    {kExecution, "--shard", "K/N", kSw, Check::kText, "0/1",
     "run only tasks with index ≡ K (mod N); the union of all N shards' "
     "outputs merges byte-identically into the unsharded run (adaptive "
     "sweeps shard the refined cell set; every shard plans the full grid "
     "first)",
     [](Options& o, S v) {
       const auto [k, n] = halves(v, '/', "K/N");
       o.run.shard.index = u64(k);
       o.run.shard.count = u64(n);
       if (o.run.shard.index >= o.run.shard.count) {
         throw UsageError("want 0 <= K < N");
       }
     }},
    {kExecution, "--cache-dir", "DIR", kRuns | kCa, Check::kText, nullptr,
     "memoize finished cells in DIR (content-addressed); warm cells skip "
     "simulation entirely. `cache` falls back to $BBRM_SWEEP_CACHE",
     [](Options& o, S v) { o.cache_dir = v; }},
    {kExecution, "--timeout", "S", kRuns, Check::kNonNegative, "0",
     "per-task attempt budget in seconds (0 = off); a timeout is terminal "
     "for its task (never retried)",
     [](Options& o, S v) { o.run.timeout_s = real(v); }},
    {kExecution, "--retries", "N", kRuns, Check::kCount, "0",
     "re-run a task that threw up to N more times",
     [](Options& o, S v) { o.run.max_attempts = 1 + u64(v); }},
    {kExecution, "--quiet", nullptr, kRuns, Check::kSwitch, nullptr,
     "suppress the progress meter",
     [](Options& o, S) { o.quiet = true; }},
    {kExecution, "--trace", nullptr, kSw | kDrain, Check::kSwitch, nullptr,
     "record execution spans and write a Chrome trace on exit (plain run: "
     "bbrsweep.trace; worker: the queue's workers/<id>.trace). BBRM_TRACE=1 "
     "does the same; any other non-zero value names the file. Result bytes "
     "never change: spans only land in side files",
     [](Options& o, S) { o.trace = true; }},
    {kExecution, "--log-level", "L", kRuns, Check::kText, "info",
     "stderr verbosity: debug, info, warn, error, off; lines are prefixed "
     "bbrsweep[tag] with the worker id as tag, so multi-worker output stays "
     "attributable",
     [](Options& o, S v) {
       const auto level = obs::parse_log_level(v);
       if (!level) {
         throw UsageError("unknown log level (valid: debug, info, warn, "
                          "error, off)");
       }
       o.log_level = *level;
     }},

    {kOutput, "--csv", "PATH", kCells | kMe, Check::kText, "-",
     "write CSV rows to PATH ('-' = stdout); merge writes its merged file "
     "to exactly one of --csv and --json",
     [](Options& o, S v) { o.csv_path = v; }},
    {kOutput, "--json", "PATH", kSw | kCo | kMe, Check::kText, nullptr,
     "also write a JSON summary to PATH ('-' = stdout)",
     [](Options& o, S v) { o.json_path = v; }},
    {kOutput, "-h|--help", nullptr, kAll, Check::kSwitch, nullptr,
     "this text", [](Options& o, S) { o.help = true; }},

    {kQueueDir, "--queue-dir", "DIR", kCo | kWo | kFl | kSt | kTr,
     Check::kText, nullptr, "the shared queue directory (required)",
     [](Options& o, S v) { o.queue_dir = v; }},
    {kQueueDir, "--lease", "S", kQueue, Check::kPositive, nullptr,
     "claim lease: a cell whose worker misses heartbeats for S seconds is "
     "re-enqueued (default 60; a worker adopts the coordinator's)",
     [](Options& o, S v) { o.lease_s = real(v); }},
    {kQueueDir, "--skew-margin", "S", kQueue, Check::kNonNegative, nullptr,
     "extra slack before an expired lease is recovered, absorbing "
     "cross-host mtime skew (default lease/4; a worker adopts the "
     "coordinator's)",
     [](Options& o, S v) { o.skew_margin_s = real(v); }},
    {kQueueDir, "--poll", "S", kQueue, Check::kPositive, "0.5",
     "progress/claim poll interval",
     [](Options& o, S v) { o.poll_s = real(v); }},
    {kQueueDir, "--segment-cells", "K", kCo, Check::kCountMin1, "1",
     "the one chunking knob: seed the pending work as K-cell segments. A "
     "worker claims and leases a whole segment by one rename; finished "
     "cells append to per-worker result logs, so a crash re-enqueues only "
     "the unpublished members. The queue holds O(cells/K) files and collect "
     "output is byte-identical for every K. Directories an older bbrsweep "
     "seeded are refused: re-seed (merge --plan still reads their plan)",
     [](Options& o, S v) { o.segment_cells = u64(v); }},

    {kWorkerOnly, "--worker-id", "ID", kWo, Check::kText, nullptr,
     "claim-file name ([A-Za-z0-9_-]; default host-pid)",
     [](Options& o, S v) { o.worker.worker_id = v; }},
    {kWorkerOnly, "--max-cells", "N", kDrain, Check::kCount, "0",
     "publish at most N cells, then exit (0 = no limit; exact: a segment "
     "bigger than the remaining budget is trimmed back to pending)",
     [](Options& o, S v) { o.worker.max_cells = u64(v); }},
    {kWorkerOnly, "--plan-wait", "S", kDrain, Check::kNonNegative, "60",
     "wait up to S seconds for the coordinator to seed the plan",
     [](Options& o, S v) { o.plan_wait_s = real(v); }},

    {kFleetOnly, "--workers", "N", kFl, Check::kCountMin1, "1",
     "worker slots to keep filled",
     [](Options& o, S v) { o.fleet.workers = u64(v); }},
    {kFleetOnly, "--ssh", "LIST", kFl, Check::kText, nullptr,
     "run workers over ssh on these hosts (round-robin); hosts must share "
     "--queue-dir and have bbrsweep on PATH (override with "
     "--remote-bbrsweep)",
     [](Options& o, S v) { o.fleet.ssh_hosts = split(v, ','); }},
    {kFleetOnly, "--remote-bbrsweep", "CMD", kFl, Check::kText, "bbrsweep",
     "the command that runs bbrsweep on ssh hosts",
     [](Options& o, S v) { o.fleet.remote_command = v; }},
    {kFleetOnly, "--max-strikes", "N", kFl, Check::kCountMin1, "5",
     "give a slot up after N consecutive deaths without queue progress",
     [](Options& o, S v) { o.fleet.max_strikes = u64(v); }},
    {kFleetOnly, "--autoscale", "MIN:MAX", kFl, Check::kText, nullptr,
     "backlog-driven elasticity (replaces --workers): start at MIN slots, "
     "grow one while the backlog would take > 20 s to drain at the workers' "
     "aggregate cells/s, shrink one under 4 s. Scaled-down workers are "
     "SIGTERMed and their claims re-enqueued, so results are unchanged",
     [](Options& o, S v) {
       const auto [lo, hi] = halves(v, ':', "MIN:MAX, e.g. 1:8");
       orchestrator::AutoscalePolicy policy;
       policy.min_workers = u64(lo);
       policy.max_workers = u64(hi);
       if (policy.min_workers == 0 ||
           policy.max_workers < policy.min_workers) {
         throw UsageError("want 1 <= MIN <= MAX");
       }
       o.fleet.autoscale = policy;
     }},

    {kTools, "--deep", nullptr, kSt, Check::kSwitch, nullptr,
     "status: add the exact distinct-result count from the result logs, "
     "and exit 2 if the O(1) counters undercount it (a damaged queue)",
     [](Options& o, S) { o.deep = true; }},
    {kTools, "--json", nullptr, kSt, Check::kSwitch, nullptr,
     "status: print the same snapshot as one machine-readable JSON object "
     "(counters, workers, metrics)",
     [](Options& o, S) { o.status_json = true; }},
    {kTools, "--metrics", nullptr, kSt, Check::kSwitch, nullptr,
     "status: add each worker's telemetry counters/histograms from its "
     "workers/<id>.metrics snapshot to the human view",
     [](Options& o, S) { o.metrics = true; }},
    {kTools, "-o|--out", "OUT", kTr, Check::kText, "run.trace.json",
     "trace: where to write the merged fleet timeline",
     [](Options& o, S v) { o.trace_out = v; }},
    {kTools, "--plan", "FILE", kMe, Check::kText, nullptr,
     "merge: a queue's plan.bbrplan, to name the missing cells' spec keys "
     "and coordinates on incomplete unions",
     [](Options& o, S v) { o.plan_path = v; }},
    {kTools, "--max-bytes", "N[K|M|G]", kCa, Check::kText, nullptr,
     "cache gc: evict oldest-modified cells first until the store fits in "
     "N bytes; evicted cells are simply recomputed on next use",
     [](Options& o, S v) { o.max_bytes = parse_bytes(v); }},
};

// ------------------------------------------------------------ subcommands --

struct CommandDoc {
  const char* name;
  const char* synopsis;
  const char* about;
};

const CommandDoc kCommands[kCommandCount] = {
    {"", "[options]", nullptr},
    {"plan", "[options]",
     "run only the adaptive triage rounds and print the refined cell set as "
     "CSV (deterministic bytes): what --adaptive would run, unsimulated"},
    {"coordinator", "--queue-dir DIR [options]",
     "build the plan (dense, or --adaptive), seed the durable work queue in "
     "DIR, watch progress (re-enqueueing cells whose lease expired), then "
     "stream the merged CSV/JSON, byte-identical to the single-process run. "
     "A re-run resumes the queue and retries cells whose result failed"},
    {"worker", "--queue-dir DIR [options]",
     "drain cells from DIR until the plan is done: claim (atomic rename), "
     "simulate, publish, heartbeat. Workers may join, crash, and restart at "
     "any time"},
    {"fleet", "--queue-dir DIR [--workers N] [options]",
     "spawn and monitor worker processes against one queue dir "
     "(round-robined over --ssh hosts when given); dead workers respawn "
     "while cells remain: kill -9 any of them and the fleet heals"},
    {"status", "--queue-dir DIR [--deep] [--json] [--metrics]",
     "one O(1) snapshot of the queue (no readdir of pending/ or results/): "
     "plan size, cell counts, and per worker its cells done, failures, "
     "in-flight cells, cells/s over a sliding window and last heartbeat"},
    {"trace", "--queue-dir DIR [-o OUT]",
     "merge the Chrome-trace shards a --trace drain left in DIR/workers/ "
     "into one timeline (a pid per worker, one clock) for Perfetto or "
     "chrome://tracing"},
    {"merge", "(--csv OUT | --json OUT) [--plan FILE] FILE...",
     "reassemble shard outputs (all CSV or all JSON, matching the OUT flag) "
     "into the byte-identical unsharded file, verifying the union covers "
     "every task exactly once"},
    {"cache", "(stats | gc --max-bytes N | reindex) [--cache-dir DIR]",
     "maintain a cell cache: `stats` prints cell count and bytes from the "
     "manifest index, `gc` evicts cells until the store fits, `reindex` "
     "rebuilds the manifest from the cells after manual edits or damage"},
};

constexpr const char* kIntro = R"(
The plain run sweeps a dumbbell grid (by default the paper's Figs. 6-10)
and writes one CSV/JSON row per experiment, bit-identical for any --threads.
Failed tasks are reported in the rows (status/error columns), and the exit
code is then 3. Usage errors exit 2: an unknown flag, a bad value, a missing
required flag, or a flag the subcommand does not take (listed at the end).
)";

std::string label(Command command) {
  const bool plain = command == Command::kSweep;
  return std::string("`bbrsweep") + (plain ? "" : " ") +
         command_name(command) + "`";
}

bool spelled(const Flag& flag, const std::string& arg) {
  const auto names = split(flag.name, '|');
  return std::find(names.begin(), names.end(), arg) != names.end();
}

const Flag& lookup(const std::string& arg, Command command) {
  Commands takers = 0;
  for (const Flag& flag : kFlags) {
    if (!spelled(flag, arg)) continue;
    if (flag.commands & bit(command)) return flag;
    takers |= flag.commands;
  }
  if (takers == 0) throw UsageError("unknown option: " + arg);
  std::string only;
  for (int c = 0; c < kCommandCount; ++c) {
    if (takers & bit(static_cast<Command>(c))) {
      only += (only.empty() ? "" : ", ") +
              (c == 0 ? std::string("plain bbrsweep") : kCommands[c].name);
    }
  }
  throw UsageError(arg + " does not apply to " + label(command) +
                   " (only to: " + only + ")");
}

/// Throw when any item of `value` fails `flag`'s check.
void check(const Flag& flag, const std::string& arg, const std::string& value) {
  const bool list = std::strcmp(flag.arg, "LIST") == 0;
  for (const auto& item :
       list ? split(value, ',') : std::vector<std::string>{value}) {
    if (const char* want = violation(flag.check, item)) {
      throw UsageError("bad " + arg + (list ? " item '" : " value '") + item +
                       "' (want " + want + ")");
    }
  }
}

/// The user-facing part of a library error: PreconditionError prefixes
/// its reason with the failed expression and source location.
std::string reason(const std::exception& e) {
  const std::string what = e.what();
  const std::string dash = " — ";
  const auto at = what.find(dash);
  return at == std::string::npos ? what : what.substr(at + dash.size());
}

/// The subcommand-level rules no single row can state.
void finish(Options& opt) {
  for (auto& range : opt.grid.rtt_ranges) range.dist = opt.rtt_dist;
  if (opt.runner_name != "backend") {
    opt.run.runner = sweep::runner_by_name(opt.runner_name);
  }
  const Commands queue_dir_needed = kCo | kWo | kFl | kSt | kTr;
  if ((bit(opt.command) & queue_dir_needed) && !opt.queue_dir) {
    throw UsageError(label(opt.command) + " needs --queue-dir DIR");
  }
  if (opt.command == Command::kMerge) {
    if (opt.csv_path.has_value() == opt.json_path.has_value()) {
      throw UsageError("merge needs exactly one of --csv or --json");
    }
    if (opt.positional.empty()) {
      throw UsageError("merge needs at least one shard file");
    }
  }
  if (opt.command == Command::kCache) {
    if (opt.positional.size() != 1) {
      throw UsageError("cache needs one command (valid: stats, gc, reindex)");
    }
    const bool gc = choose<bool>(
        "cache command", {{"stats", false}, {"gc", true}, {"reindex", false}},
        opt.positional[0]);
    if (gc != opt.max_bytes.has_value()) {
      throw UsageError(gc ? "cache gc needs --max-bytes N[K|M|G]"
                          : "only cache gc takes --max-bytes");
    }
  }
}

constexpr std::size_t kHelpColumn = 22;
constexpr std::size_t kWidth = 79;

/// `lead`, then `text` word-wrapped from the help column to kWidth.
std::string entry(std::string line, const std::string& text) {
  std::string out;
  line.resize(std::max(line.size() + 1, kHelpColumn), ' ');
  bool fresh = true;  // no word on this line yet
  std::istringstream words(text);
  for (std::string word; words >> word;) {
    if (!fresh && line.size() + 1 + word.size() > kWidth) {
      out += line + '\n';
      line.assign(kHelpColumn, ' ');
      fresh = true;
    }
    line += (fresh ? "" : " ") + word;
    fresh = false;
  }
  return out + line + '\n';
}

}  // namespace

const char* command_name(Command command) {
  return kCommands[static_cast<int>(command)].name;
}

const std::vector<Flag>& flags() { return kFlags; }

Options parse(const std::vector<std::string>& args) {
  Options opt;
  std::size_t i = 0;
  for (int c = 1; c < kCommandCount && !args.empty(); ++c) {
    if (args[0] == kCommands[c].name) {
      opt.command = static_cast<Command>(c);
      i = 1;
    }
  }
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      if (opt.command != Command::kMerge && opt.command != Command::kCache) {
        throw UsageError("unexpected argument: " + arg);
      }
      opt.positional.push_back(arg);
      continue;
    }
    const Flag& flag = lookup(arg, opt.command);
    std::string value;
    if (flag.arg != nullptr) {
      if (++i == args.size()) throw UsageError(arg + " needs a value");
      value = args[i];
      check(flag, arg, value);
    }
    try {
      flag.set(opt, value);
    } catch (const std::exception& e) {
      throw UsageError("bad " + arg + " value '" + value + "': " + reason(e));
    }
    if (opt.help) return opt;
    if (opt.command == Command::kFleet && (flag.commands & kFwd)) {
      opt.fleet.worker_args.push_back(arg);
      if (flag.arg != nullptr) opt.fleet.worker_args.push_back(value);
    }
  }
  finish(opt);
  return opt;
}

std::string usage() {
  std::string out = "bbrsweep — parallel BBR scenario sweeps\n\n";
  for (int c = 0; c < kCommandCount; ++c) {
    out += std::string(c == 0 ? "Usage: " : "       ") + "bbrsweep " +
           kCommands[c].name + (c == 0 ? "" : " ") + kCommands[c].synopsis +
           "\n";
  }
  out += kIntro;
  out += "\nSubcommands:\n";
  for (int c = 1; c < kCommandCount; ++c) {
    out += entry(std::string("  ") + kCommands[c].name, kCommands[c].about);
  }
  const char* section = "";
  for (const Flag& flag : kFlags) {
    if (std::strcmp(section, flag.section) != 0) {
      section = flag.section;
      out += std::string("\n") + section + "\n";
    }
    std::string lead = std::string("  ") + flag.name;
    const auto bar = lead.find('|');
    if (bar != std::string::npos) lead.replace(bar, 1, ", ");
    if (flag.arg != nullptr) lead += std::string(" ") + flag.arg;
    std::string help = flag.help;
    if (flag.def != nullptr) help += std::string(" (default ") + flag.def + ")";
    out += entry(lead, help);
  }
  // The row lists: flags by subcommand, then fleet's forwarded ones.
  out += "\nFlags each subcommand takes (any other flag is an error there):\n";
  const auto names = [](Commands set) {
    std::string list;
    for (const Flag& flag : kFlags) {
      if (flag.commands & set) list += std::string(" ") + flag.name;
    }
    return list;
  };
  for (int c = 0; c < kCommandCount; ++c) {
    out += entry(std::string("  bbrsweep ") + kCommands[c].name,
                 names(bit(static_cast<Command>(c))));
  }
  out += entry("  fleet forwards", names(kFwd) + " to every worker, after "
                                   "checking them as a worker would");
  return out;
}

}  // namespace bbrmodel::cli
