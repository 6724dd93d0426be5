// bbrsweep — run parameter sweeps of the paper's dumbbell experiments in
// parallel from the command line.
//
// The default invocation reproduces the aggregate-figure grid (Figs. 6–10):
// seven CCA mixes × 1–7 BDP × {drop-tail, RED} × {fluid, packet}, N = 10
// flows, RTT 30–40 ms, 100 Mbps — and writes one CSV row per experiment.
// Axes, seed, duration, and thread count are all flags. Results are
// bit-identical for any --threads value.
//
// Sweeps shard across processes (--shard k/n; `bbrsweep merge` reassembles
// the byte-identical full run) and memoize finished cells in a
// content-addressed on-disk cache (--cache-dir, with `bbrsweep cache
// stats|gc` for maintenance). --adaptive treats the grid as a coarse pass:
// a cheap triage runner scores it, only high-variation regions subdivide,
// and the refined cell set runs the expensive simulations (`bbrsweep plan`
// prints that cell set without simulating).
//
//   bbrsweep --csv sweep.csv --json sweep.json --threads 8
//   bbrsweep --mixes bbrv1,bbrv1/reno --buffers 1,4,7 --backends packet
//   bbrsweep --shard 0/2 --csv shard0.csv --cache-dir /tmp/cells
//   bbrsweep merge --csv full.csv shard0.csv shard1.csv
//   bbrsweep --adaptive --backends fluid --mixes bbrv1 --buffers 1,3,5,7
//   bbrsweep plan --backends reduced --mixes bbrv1 --refine-depth 2
//   bbrsweep cache gc --max-bytes 512M --cache-dir /tmp/cells
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/policy.h"
#include "adaptive/refiner.h"
#include "common/atomic_io.h"
#include "common/json.h"
#include "common/parse.h"
#include "common/units.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orchestrator/execution_plan.h"
#include "orchestrator/fleet.h"
#include "orchestrator/work_queue.h"
#include "sweep/cell_cache.h"
#include "sweep/merge.h"
#include "sweep/sweep.h"
#include "sweep/thread_pool.h"
#include "sweep/workloads.h"

namespace {

using namespace bbrmodel;

constexpr const char* kUsage = R"(bbrsweep — parallel BBR scenario sweeps

Usage: bbrsweep [options]
       bbrsweep plan [options]
       bbrsweep coordinator --queue-dir DIR [options]
       bbrsweep worker --queue-dir DIR [worker options]
       bbrsweep fleet --queue-dir DIR --workers N [fleet options]
       bbrsweep status --queue-dir DIR [--deep] [--json] [--metrics]
       bbrsweep trace --queue-dir DIR [-o OUT]
       bbrsweep merge (--csv OUT | --json OUT) [--plan FILE] FILE...
       bbrsweep cache (stats | gc --max-bytes N[K|M|G] | reindex)
                      [--cache-dir DIR]

Grid axes (comma-separated lists; defaults reproduce Figs. 6-10):
  --mixes LIST        CCA mixes: homogeneous (bbrv1, bbrv2, cubic, reno),
                      half/half (bbrv1/cubic), leader+rest (bbrv1+reno:
                      flow 0 vs uniform cross traffic), or cyclic patterns
                      of 3+ CCAs (bbrv1/cubic/reno: flow i runs the i-th
                      CCA, wrapping); default: the paper's seven (bbrv1,
                      bbrv1/bbrv2, bbrv1/cubic, bbrv1/reno, bbrv2,
                      bbrv2/cubic, bbrv2/reno)
  --buffers LIST      bottleneck buffers in BDP (default 1,2,3,4,5,6,7)
  --flows LIST        flow counts N (default 10)
  --rtts LIST         RTT spreads as min:max in ms (default 30:40)
  --rtt-dist NAME     per-flow RTT distribution across each spread:
                      uniform (linear spacing), pareto (heavy tail),
                      bimodal (half at min, half at max)
  --disciplines LIST  droptail, red (default both)
  --backends LIST     fluid, packet, reduced (default fluid,packet;
                      reduced = instant closed-form §5 predictions for
                      homogeneous BBR mixes)

Scenario constants:
  --capacity MBPS     bottleneck capacity (default 100)
  --duration S        simulated seconds per experiment (default 5)
  --step US           fluid solver step in microseconds (default 50)

Workload:
  --workload NAME     dumbbell (default; the paper's validation topology,
                      dispatched per the --backends axis) or parking-lot
                      (paper §8 multi-bottleneck: flow 0 of each mix is
                      the long flow, flows 1..n-1 are the per-hop cross
                      flows, so --flows N sweeps N-1 hops and cyclic
                      --mixes paint the hops in CCA patterns)

Adaptive refinement (--adaptive, and the `plan` subcommand):
  --adaptive          triage the grid with a cheap runner, subdivide only
                      the regions where the refine metrics vary, then run
                      the expensive simulations on the refined cells only
  --triage NAME       triage runner: reduced (default; closed-form §5),
                      fluid, packet, backend
  --triage-duration S simulated seconds for triage runs only (0 = same as
                      --duration); cheapens a fluid/packet triage
  --refine-metric LIST  metrics scored for neighborhood variation: jain,
                      loss, occupancy, utilization, jitter, aux0
                      (default jain,loss,utilization,occupancy)
  --refine-threshold X  normalized variation at or above which an interval
                      subdivides (default 0.05)
  --refine-depth N    refinement rounds after the coarse pass (default 3)
  --refine-budget N   total cell budget incl. the coarse pass (default
                      4096; never clamps below the coarse grid)

  `bbrsweep plan` runs only the triage rounds and prints the refined cell
  set as CSV (deterministic bytes) — inspect what --adaptive would run.

Execution:
  --threads N         worker threads; 0 = hardware concurrency (default 0)
  --batch-cells K     only sets how many cells form one work unit, for
                      runners that take several cells per call (fluid
                      does: a unit's cells run one after another on one
                      thread). 0 = the runner's preferred size (default
                      for single-process runs), 1 = one cell per unit
                      (default for `worker`), K = up to K cells. Output
                      bytes never change (see README "Performance")
  --seed S            base seed; per-task seeds derive from it (default 42)
  --shard K/N         run only tasks with index ≡ K (mod N); the union of
                      all N shards' outputs merges byte-identically into
                      the unsharded run (adaptive sweeps shard the refined
                      cell set; every shard plans the full grid first)
  --cache-dir DIR     memoize finished cells in DIR (content-addressed);
                      warm cells skip simulation entirely
  --timeout S         per-task attempt budget in seconds (0 = off);
                      a timeout is terminal for its task (never retried)
  --retries N         re-run a task that threw up to N more times
  --quiet             suppress the progress meter
  --trace             record execution spans (cache probes, runs, claims,
                      engine passes) and write a Chrome-trace JSON on exit
                      (plain run: bbrsweep.trace; worker: the queue's
                      workers/<id>.trace). BBRM_TRACE=1 enables the same;
                      any other non-zero value names the output path.
                      Result CSV/JSON bytes are identical with tracing on
                      or off — spans only ever land in side files
  --log-level L       stderr verbosity: debug, info, warn, error, off
                      (default info); lines are prefixed bbrsweep[tag]
                      with the worker id as tag, so multi-worker output
                      stays attributable

Output:
  --csv PATH          write CSV rows to PATH ('-' = stdout; default '-')
  --json PATH         also write a JSON summary to PATH ('-' = stdout)
  -h, --help          this text

Failed tasks are reported in the CSV/JSON rows (status/error columns)
instead of aborting the sweep; the exit code is 3 if any task failed.

Distributed execution (one plan, any number of machines sharing DIR):
  coordinator         build the execution plan (dense, or --adaptive via
                      the triage rounds), seed the durable work queue in
                      --queue-dir, watch progress (re-enqueueing cells
                      whose worker lease expired), then stream the merged
                      CSV/JSON — byte-identical to the single-process run.
                      Re-running a crashed coordinator resumes the queue
                      (and re-enqueues cells whose stored result failed,
                      so transient failures are re-attempted).
  worker              drain cells from --queue-dir until the plan is done:
                      claim (atomic rename), simulate, publish, heartbeat.
                      Workers may join, crash, and restart at any time.
  fleet               spawn and monitor --workers N worker processes
                      against one queue dir (round-robined over --ssh
                      hosts when given); dead workers respawn while cells
                      remain — kill -9 any of them and the fleet heals.
  status              one snapshot of the queue: plan size, cell counts,
                      and a per-worker table (cells done, failures,
                      in-flight, cells/s over a sliding window, last
                      heartbeat) from the stats files workers refresh on
                      every heartbeat tick.
                      On a segment-layout queue the counts are O(1) —
                      counters file + publish checkpoints, no readdir of
                      pending/ or results/. --deep adds the full
                      directory census and exits 2 if the O(1) view
                      undercounts it (a damaged queue). --json prints the
                      same snapshot as one machine-readable JSON object
                      (counters, workers, metrics); --metrics adds each
                      worker's telemetry counters/histograms from its
                      workers/<id>.metrics snapshot to the human view.
  trace               merge the per-worker Chrome-trace shards a --trace
                      drain left in DIR/workers/*.trace into one
                      fleet-wide timeline (-o OUT, default
                      run.trace.json): worker id becomes the Chrome pid
                      and every clock is rebased onto the earliest
                      worker's start stamp. Open the result in Perfetto
                      or chrome://tracing.
  --queue-dir DIR     the shared queue directory
  --lease S           claim lease: a cell whose worker misses heartbeats
                      for S seconds is re-enqueued (default 60)
  --skew-margin S     extra slack before an expired lease is recovered,
                      absorbing cross-host mtime skew (default lease/4)
  --poll S            progress/claim poll interval (default 0.5)
  --batch K           coordinator: seed K-cell batch files, each claimed
                      by one rename; worker: claim and lease up to K
                      cells as one unit (coalescing pending singles),
                      publishing results per cell — a crash mid-batch
                      only re-enqueues the unfinished members
  --segment-cells K   coordinator only: seed the *segment* queue layout —
                      pending work in K-cell segments (one rename claims
                      a whole segment), finished cells appended to
                      per-worker binary result logs, O(1) status from a
                      counters file. The filesystem holds O(cells/K)
                      entries however big the plan; collect output stays
                      byte-identical to the per-cell layout and to the
                      single-process run. Queues seeded without this flag
                      keep the per-cell layout; layouts never mix in one
                      directory
  worker only:
  --worker-id ID      claim-file name ([A-Za-z0-9_-]; default host-pid)
  --max-cells N       publish at most N cells, then exit (0 = no limit;
                      exact even with --batch — oversized claims are
                      trimmed back to pending)
  --plan-wait S       wait up to S seconds for the coordinator to seed
                      the plan (default 60)
  (--threads, --batch-cells, --cache-dir, --timeout, --retries apply per
   worker; --batch-cells, default 1 here, sets the work units a claimed
   unit's cells run in — results stay byte-identical)
  fleet only:
  --workers N         worker slots to keep filled (default 1)
  --ssh HOST,...      run workers over ssh on these hosts (round-robin);
                      hosts must share --queue-dir and have bbrsweep on
                      PATH (override with --remote-bbrsweep CMD)
  --max-strikes N     give a slot up after N consecutive deaths without
                      queue progress (default 5)
  --autoscale MIN:MAX backlog-driven elasticity (replaces --workers): the
                      fleet starts at MIN slots, grows one slot whenever
                      the pending backlog would take > 20 s to drain at
                      the live workers' aggregate cells/s, shrinks one
                      once it falls under 4 s, never leaving [MIN, MAX].
                      Scaled-down workers are SIGTERMed; lease recovery
                      re-enqueues anything they held, so results are
                      unchanged
  (--batch, --batch-cells, --threads, --cache-dir, --timeout, --retries,
   --lease, --skew-margin, --max-cells, --plan-wait, --trace, --log-level
   forward to every worker; each traced worker writes its own
   workers/<id>.trace shard for `bbrsweep trace` to merge)

merge: reassemble shard outputs (all CSV or all JSON, matching the OUT
flag) into the byte-identical unsharded file, verifying the union covers
every task exactly once. --plan FILE (a queue's plan.bbrplan) names the
missing cells' spec keys and coordinates on incomplete unions.

cache: maintain a --cache-dir store (defaults to $BBRM_SWEEP_CACHE).
`stats` prints cell count and bytes from the manifest index; `gc
--max-bytes N[K|M|G]` evicts oldest-modified cells first until the store
fits — evicted cells are simply recomputed on next use; `reindex`
rebuilds the manifest from the cells after manual edits or damage.
)";

[[noreturn]] void fail(const std::string& message) {
  obs::log(obs::LogLevel::kError, "%s (try --help)", message.c_str());
  std::exit(2);
}

/// Resolve `name` against the valid choices of one flag, failing with a
/// one-line error that lists them (never fall back to a default
/// silently).
template <typename T>
T parse_choice(const std::string& what,
               const std::vector<std::pair<std::string, T>>& choices,
               const std::string& name) {
  std::string valid;
  for (const auto& choice : choices) {
    if (name == choice.first) return choice.second;
    if (!valid.empty()) valid += ", ";
    valid += choice.first;
  }
  fail("unknown " + what + " '" + name + "' (valid: " + valid + ")");
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep)) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

double parse_double(const std::string& text, const std::string& what) {
  // One shared full-string spelling (common/parse); only the exit-code-2
  // error style lives here.
  const auto v = try_parse_double(text);
  if (!v) fail("bad " + what + ": " + text);
  return *v;
}

/// Durations that must be usable as waits/leases: finite and > 0.
double parse_positive_finite(const std::string& text,
                             const std::string& what) {
  const double v = parse_double(text, what);
  if (!std::isfinite(v) || v <= 0.0) {
    fail(what + " must be positive and finite");
  }
  return v;
}

/// Margins and waits that may be zero: finite and >= 0.
double parse_nonnegative_finite(const std::string& text,
                                const std::string& what) {
  const double v = parse_double(text, what);
  if (!std::isfinite(v) || v < 0.0) {
    fail(what + " must be finite and >= 0");
  }
  return v;
}

std::uint64_t parse_count(const std::string& text, const std::string& what) {
  // Not parse_double + cast: doubles silently round integers above 2^53,
  // which would corrupt --seed values without any error.
  if (text.empty() || text[0] == '-') {
    fail(what + " must be a non-negative integer: " + text);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    fail(what + " must be a non-negative integer: " + text);
  }
  return v;
}

/// Byte counts with an optional binary suffix: "1024", "512M", "2G".
std::uintmax_t parse_bytes(const std::string& text, const std::string& what) {
  std::string digits = text;
  std::uintmax_t unit = 1;
  if (!digits.empty()) {
    switch (digits.back()) {
      case 'K':
      case 'k':
        unit = 1024ull;
        break;
      case 'M':
      case 'm':
        unit = 1024ull * 1024;
        break;
      case 'G':
      case 'g':
        unit = 1024ull * 1024 * 1024;
        break;
      default:
        break;
    }
    if (unit != 1) digits.pop_back();
  }
  return parse_count(digits, what) * unit;
}

scenario::CcaKind parse_cca(const std::string& name) {
  return parse_choice<scenario::CcaKind>(
      "CCA",
      {{"bbrv1", scenario::CcaKind::kBbrv1},
       {"bbrv2", scenario::CcaKind::kBbrv2},
       {"cubic", scenario::CcaKind::kCubic},
       {"reno", scenario::CcaKind::kReno}},
      name);
}

sweep::MixSpec parse_mix(const std::string& token) {
  // Validate the token shape before delegating to parse_cca, so a
  // malformed *mix* ("a+b+c", "a/b+c") gets the mix grammar in its error
  // instead of a misleading unknown-CCA complaint.
  if (token.find('+') != std::string::npos) {
    // "lead+rest": flow 0 runs lead, everyone else rest (parking-lot
    // long flow vs uniform cross traffic).
    const auto plus = split(token, '+');
    if (plus.size() != 2 || token.find('/') != std::string::npos) {
      fail("bad mix (want CCA, CCA/CCA, CCA+CCA, or CCA/CCA/CCA...): " +
           token);
    }
    return sweep::leader_mix(parse_cca(plus[0]), parse_cca(plus[1]));
  }
  const auto kinds = split(token, '/');
  if (kinds.size() == 1) return sweep::homogeneous_mix(parse_cca(kinds[0]));
  // Two kinds keep the paper's half/half split; three or more cycle
  // per-position (flow i runs kinds[i % k]).
  if (kinds.size() == 2) {
    return sweep::half_half_mix(parse_cca(kinds[0]), parse_cca(kinds[1]));
  }
  std::vector<scenario::CcaKind> cycle;
  for (const auto& kind : kinds) cycle.push_back(parse_cca(kind));
  return sweep::cyclic_mix(std::move(cycle));
}

net::Discipline parse_discipline(const std::string& name) {
  return parse_choice<net::Discipline>(
      "discipline",
      {{"droptail", net::Discipline::kDropTail},
       {"red", net::Discipline::kRed}},
      name);
}

sweep::Backend parse_backend(const std::string& name) {
  // One shared name table (sweep::backend_from_name); only the
  // exit-code-2 error style lives here.
  const auto backend = sweep::backend_from_name(name);
  if (!backend) {
    fail("unknown backend '" + name + "' (valid: fluid, packet, reduced)");
  }
  return *backend;
}

sweep::RttDist parse_rtt_dist(const std::string& name) {
  return parse_choice<sweep::RttDist>(
      "RTT distribution",
      {{"uniform", sweep::RttDist::kUniform},
       {"pareto", sweep::RttDist::kPareto},
       {"bimodal", sweep::RttDist::kBimodal}},
      name);
}

adaptive::RefineMetric parse_metric(const std::string& name) {
  std::vector<std::pair<std::string, adaptive::RefineMetric>> choices;
  for (const auto metric : adaptive::all_refine_metrics()) {
    choices.emplace_back(adaptive::to_string(metric), metric);
  }
  return parse_choice<adaptive::RefineMetric>("refine metric", choices, name);
}

sweep::Runner parse_triage(const std::string& name) {
  // The registry the work queue resolves plans against also names every
  // triage candidate — one list, one spelling.
  std::vector<std::pair<std::string, sweep::Runner>> choices;
  for (const auto& known : sweep::runner_names()) {
    choices.emplace_back(known, sweep::runner_by_name(known));
  }
  return parse_choice<sweep::Runner>("triage runner", choices, name);
}

sweep::ShardSpec parse_shard(const std::string& token) {
  const auto parts = split(token, '/');
  if (parts.size() != 2) fail("bad shard (want K/N): " + token);
  sweep::ShardSpec shard;
  shard.index = static_cast<std::size_t>(parse_count(parts[0], "shard index"));
  shard.count = static_cast<std::size_t>(parse_count(parts[1], "shard count"));
  if (shard.count == 0 || shard.index >= shard.count) {
    fail("shard needs 0 <= K < N: " + token);
  }
  return shard;
}

sweep::RttRange parse_rtt(const std::string& token) {
  const auto bounds = split(token, ':');
  if (bounds.size() != 2) fail("bad RTT spread (want min:max in ms): " + token);
  sweep::RttRange range;
  range.min_s = parse_double(bounds[0], "RTT") * 1e-3;
  range.max_s = parse_double(bounds[1], "RTT") * 1e-3;
  if (!(range.min_s > 0.0 && range.max_s >= range.min_s)) {
    fail("RTT spread needs 0 < min <= max: " + token);
  }
  return range;
}

struct Options {
  sweep::ParameterGrid grid;
  scenario::ExperimentSpec base;
  sweep::SweepOptions run;
  adaptive::RefinementPolicy policy;
  bool adaptive = false;
  double triage_duration_s = 0.0;
  std::optional<std::string> cache_dir;
  std::optional<std::string> csv_path = "-";
  std::optional<std::string> json_path;
  bool quiet = false;
  /// Record execution spans and write a Chrome-trace shard on exit.
  bool trace = false;
  /// The named runner executing (and recorded in) the plan: "backend"
  /// (dumbbell, dispatched per the backend axis) or "parking-lot".
  std::string runner_name = "backend";
  std::optional<std::string> queue_dir;
  double lease_s = 60.0;
  /// Negative = the queue's default (lease/4).
  double skew_margin_s = -1.0;
  double poll_s = 0.5;
  /// Cells per pending batch entry the coordinator seeds (1 = singles).
  std::size_t batch = 1;
  /// > 0 selects the segment queue layout with this many cells per
  /// segment (coordinator only).
  std::size_t segment_cells = 0;
  /// Fail-fast bookkeeping: queue-only flags given to a non-queue mode
  /// must error, not silently fall back.
  bool lease_given = false;
  bool poll_given = false;
  bool skew_given = false;
  bool batch_given = false;
  bool segment_given = false;
};

Options parse_args(int argc, char** argv, int first) {
  Options opt;
  opt.base.capacity_pps = mbps_to_pps(100.0);
  std::optional<sweep::RttDist> rtt_dist;

  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) fail(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (arg == "--mixes") {
      opt.grid.mixes.clear();
      for (const auto& token : split(next(i), ','))
        opt.grid.mixes.push_back(parse_mix(token));
    } else if (arg == "--buffers") {
      opt.grid.buffers_bdp.clear();
      for (const auto& token : split(next(i), ','))
        opt.grid.buffers_bdp.push_back(parse_double(token, "buffer"));
    } else if (arg == "--flows") {
      opt.grid.flow_counts.clear();
      for (const auto& token : split(next(i), ','))
        opt.grid.flow_counts.push_back(
            static_cast<std::size_t>(parse_count(token, "flow count")));
    } else if (arg == "--rtts") {
      opt.grid.rtt_ranges.clear();
      for (const auto& token : split(next(i), ','))
        opt.grid.rtt_ranges.push_back(parse_rtt(token));
    } else if (arg == "--rtt-dist") {
      rtt_dist = parse_rtt_dist(next(i));
    } else if (arg == "--disciplines") {
      opt.grid.disciplines.clear();
      for (const auto& token : split(next(i), ','))
        opt.grid.disciplines.push_back(parse_discipline(token));
    } else if (arg == "--backends") {
      opt.grid.backends.clear();
      for (const auto& token : split(next(i), ','))
        opt.grid.backends.push_back(parse_backend(token));
    } else if (arg == "--capacity") {
      opt.base.capacity_pps = mbps_to_pps(parse_double(next(i), "capacity"));
    } else if (arg == "--duration") {
      opt.base.duration_s = parse_double(next(i), "duration");
    } else if (arg == "--step") {
      opt.base.fluid.step_s = parse_double(next(i), "step") * 1e-6;
    } else if (arg == "--adaptive") {
      opt.adaptive = true;
    } else if (arg == "--triage") {
      opt.run.triage = parse_triage(next(i));
    } else if (arg == "--triage-duration") {
      opt.triage_duration_s = parse_double(next(i), "triage duration");
    } else if (arg == "--refine-metric") {
      opt.policy.metrics.clear();
      for (const auto& token : split(next(i), ','))
        opt.policy.metrics.push_back(parse_metric(token));
    } else if (arg == "--refine-threshold") {
      opt.policy.threshold = parse_double(next(i), "refine threshold");
    } else if (arg == "--refine-depth") {
      opt.policy.max_depth =
          static_cast<std::size_t>(parse_count(next(i), "refine depth"));
    } else if (arg == "--refine-budget") {
      opt.policy.max_cells =
          static_cast<std::size_t>(parse_count(next(i), "refine budget"));
    } else if (arg == "--threads") {
      opt.run.threads =
          static_cast<std::size_t>(parse_count(next(i), "threads"));
    } else if (arg == "--batch-cells") {
      opt.run.batch_cells =
          static_cast<std::size_t>(parse_count(next(i), "batch cells"));
    } else if (arg == "--seed") {
      opt.run.base_seed = parse_count(next(i), "seed");
    } else if (arg == "--shard") {
      opt.run.shard = parse_shard(next(i));
    } else if (arg == "--cache-dir") {
      opt.cache_dir = next(i);
    } else if (arg == "--timeout") {
      opt.run.timeout_s = parse_double(next(i), "timeout");
    } else if (arg == "--retries") {
      opt.run.max_attempts =
          1 + static_cast<std::size_t>(parse_count(next(i), "retries"));
    } else if (arg == "--csv") {
      opt.csv_path = next(i);
    } else if (arg == "--json") {
      opt.json_path = next(i);
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--log-level") {
      const std::string name = next(i);
      const auto level = obs::parse_log_level(name);
      if (!level) fail("unknown log level: " + name);
      obs::set_log_level(*level);
    } else if (arg == "--workload") {
      opt.runner_name = parse_choice<std::string>(
          "workload",
          {{"dumbbell", "backend"}, {"parking-lot", "parking-lot"}},
          next(i));
    } else if (arg == "--queue-dir") {
      opt.queue_dir = next(i);
    } else if (arg == "--lease") {
      opt.lease_s = parse_positive_finite(next(i), "lease");
      opt.lease_given = true;
    } else if (arg == "--skew-margin") {
      opt.skew_margin_s = parse_nonnegative_finite(next(i), "skew margin");
      opt.skew_given = true;
    } else if (arg == "--batch") {
      opt.batch = static_cast<std::size_t>(parse_count(next(i), "batch"));
      if (opt.batch == 0) fail("batch must be at least 1");
      opt.batch_given = true;
    } else if (arg == "--segment-cells") {
      opt.segment_cells =
          static_cast<std::size_t>(parse_count(next(i), "segment cells"));
      if (opt.segment_cells == 0) {
        fail("segment cells must be at least 1");
      }
      opt.segment_given = true;
    } else if (arg == "--poll") {
      opt.poll_s = parse_positive_finite(next(i), "poll");
      opt.poll_given = true;
    } else {
      fail("unknown option: " + arg);
    }
  }
  if (rtt_dist.has_value()) {
    for (auto& range : opt.grid.rtt_ranges) range.dist = *rtt_dist;
  }
  if (opt.grid.cardinality() == 0) fail("the grid is empty");
  if (opt.runner_name != "backend") {
    opt.run.runner = sweep::runner_by_name(opt.runner_name);
  }
  return opt;
}

void write_output(const sweep::SweepResult& result, const std::string& path,
                  bool json) {
  const auto emit = [&](std::ostream& out) {
    json ? result.write_json(out) : result.write_csv(out);
  };
  if (path == "-") {
    emit(std::cout);
    return;
  }
  std::ofstream out(path);
  if (!out) fail("cannot open " + path);
  emit(out);
  obs::log(obs::LogLevel::kInfo, "wrote %s", path.c_str());
}

void write_text(const std::string& text, const std::string& path) {
  if (path == "-") {
    std::cout << text;
    return;
  }
  std::ofstream out(path);
  if (!out) fail("cannot open " + path);
  out << text;
  obs::log(obs::LogLevel::kInfo, "wrote %s", path.c_str());
}

std::string read_file_or_fail(const std::string& path) {
  auto bytes = read_text_file(path);
  if (!bytes) fail("cannot read " + path);
  return std::move(*bytes);
}

/// `bbrsweep merge (--csv OUT | --json OUT) [--plan FILE] FILE...`
int run_merge(int argc, char** argv) {
  std::optional<std::string> csv_out, json_out, plan_path;
  std::vector<std::string> input_paths;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv" || arg == "--json") {
      if (i + 1 >= argc) fail(arg + " needs a value");
      (arg == "--csv" ? csv_out : json_out) = argv[++i];
    } else if (arg == "--plan") {
      if (i + 1 >= argc) fail(arg + " needs a value");
      plan_path = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      fail("unknown merge option: " + arg);
    } else {
      input_paths.push_back(arg);
    }
  }
  if (csv_out.has_value() == json_out.has_value()) {
    fail("merge needs exactly one of --csv or --json");
  }
  if (input_paths.empty()) fail("merge needs at least one shard file");

  // With a plan, an incomplete union names the missing cells by spec key
  // and coordinates (and a missing tail shard becomes detectable).
  sweep::MergeContext context;
  std::optional<orchestrator::ExecutionPlan> plan;
  if (plan_path) {
    // A plan pulled out of a segment-layout queue carries the queue's
    // layout stamp as its first line; the plan text proper follows it.
    std::string plan_bytes = read_file_or_fail(*plan_path);
    constexpr std::string_view kStampPrefix = "bbrm-queue-layout=";
    if (plan_bytes.compare(0, kStampPrefix.size(), kStampPrefix) == 0) {
      const auto eol = plan_bytes.find('\n');
      plan_bytes.erase(0, eol == std::string::npos ? plan_bytes.size()
                                                   : eol + 1);
    }
    plan = orchestrator::ExecutionPlan::parse(std::move(plan_bytes));
    context.expected_cells = plan->size();
    context.describe = [&plan](std::size_t index) {
      return plan->describe_cell(index);
    };
  }

  std::vector<std::string> inputs;
  for (const auto& path : input_paths) {
    inputs.push_back(read_file_or_fail(path));
  }
  if (csv_out) {
    write_text(sweep::merge_csv(inputs, context), *csv_out);
  } else {
    write_text(sweep::merge_json(inputs, context), *json_out);
  }
  obs::log(obs::LogLevel::kInfo, "merged %zu shard file(s)", inputs.size());
  return 0;
}

/// `bbrsweep cache (stats | gc --max-bytes N | reindex) [--cache-dir DIR]`
int run_cache(int argc, char** argv) {
  enum class Verb { kStats, kGc, kReindex };
  if (argc < 3) fail("cache needs a command (valid: stats, gc, reindex)");
  const Verb verb = parse_choice<Verb>(
      "cache command",
      {{"stats", Verb::kStats},
       {"gc", Verb::kGc},
       {"reindex", Verb::kReindex}},
      argv[2]);

  std::optional<std::string> dir;
  std::optional<std::uintmax_t> max_bytes;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cache-dir") {
      if (i + 1 >= argc) fail(arg + " needs a value");
      dir = argv[++i];
    } else if (arg == "--max-bytes") {
      if (i + 1 >= argc) fail(arg + " needs a value");
      max_bytes = parse_bytes(argv[++i], "max-bytes");
    } else if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      fail("unknown cache option: " + arg);
    }
  }
  if (!dir) {
    const char* env = std::getenv("BBRM_SWEEP_CACHE");
    if (env != nullptr && env[0] != '\0') dir = env;
  }
  if (!dir) fail("cache needs --cache-dir DIR (or $BBRM_SWEEP_CACHE)");
  // A maintenance command must not fabricate an empty store out of a
  // mistyped path (the CellCache constructor creates its directory).
  if (!std::filesystem::is_directory(*dir)) {
    fail("no such cache directory: " + *dir);
  }

  const sweep::CellCache cache(*dir);
  if (verb == Verb::kStats || verb == Verb::kReindex) {
    const auto stats =
        verb == Verb::kReindex ? cache.reindex() : cache.stats();
    std::printf("cells %zu\nbytes %ju\ndir %s\n", stats.cells,
                static_cast<std::uintmax_t>(stats.bytes),
                cache.dir().c_str());
    return 0;
  }
  if (!max_bytes) fail("cache gc needs --max-bytes N[K|M|G]");
  const auto result = cache.gc(*max_bytes);
  std::printf("evicted %zu cell(s), %ju byte(s)\nkept %zu cell(s), %ju "
              "byte(s)\n",
              result.evicted_cells,
              static_cast<std::uintmax_t>(result.evicted_bytes),
              result.kept_cells,
              static_cast<std::uintmax_t>(result.kept_bytes));
  return 0;
}

adaptive::GridRefiner make_refiner(const Options& opt) {
  adaptive::GridRefiner refiner(opt.grid, opt.base, opt.policy);
  if (opt.run.triage) {
    refiner.set_triage(opt.run.triage);
  } else if (opt.run.runner) {
    // A non-default --workload must steer its own refinement: the default
    // reduced triage models the dumbbell, which would subdivide where the
    // wrong topology's metrics move (or fail outright on mixed mixes).
    refiner.set_triage(opt.run.runner);
  }
  if (opt.triage_duration_s > 0.0) {
    refiner.set_triage_transform(
        [duration = opt.triage_duration_s](scenario::ExperimentSpec& spec) {
          spec.duration_s = duration;
        });
  }
  return refiner;
}

void report_plan(const adaptive::RefinementPlan& plan) {
  obs::log(obs::LogLevel::kInfo,
           "plan has %zu cell(s): %zu coarse + %zu refined over %zu "
           "round(s)%s",
           plan.cells.size(), plan.coarse_cells,
           plan.cells.size() - plan.coarse_cells, plan.rounds,
           plan.dropped_cells > 0 ? " (budget clipped)" : "");
  if (plan.triage_failures > 0) {
    obs::log(obs::LogLevel::kWarn,
             "%zu triage cell(s) failed; their neighborhoods were not "
             "refined (mixed-CCA grids need --triage fluid)",
             plan.triage_failures);
  }
}

/// The execution plan of one CLI invocation: dense grid expansion, or the
/// adaptive triage rounds when --adaptive is set. The runner name baked
/// into the plan (--workload) is what detached workers resolve.
orchestrator::ExecutionPlan build_plan(const Options& opt) {
  if (!opt.adaptive) {
    return orchestrator::ExecutionPlan::dense(opt.grid, opt.base,
                                              opt.run.base_seed,
                                              opt.runner_name);
  }
  const auto refined = make_refiner(opt).plan(opt.run);
  if (!opt.quiet) report_plan(refined);
  return orchestrator::ExecutionPlan::from_refinement(
      refined, opt.run.base_seed, opt.runner_name);
}

void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/// Stream the completed queue's merged output to `path` ('-' = stdout),
/// returning the failed-cell count.
std::size_t collect_to(const orchestrator::WorkQueue& queue,
                       const orchestrator::ExecutionPlan& plan,
                       const std::string& path, bool json) {
  const auto collect = [&](std::ostream& out) {
    return json ? orchestrator::collect_json(queue, plan, out)
                : orchestrator::collect_csv(queue, plan, out);
  };
  if (path == "-") return collect(std::cout);
  std::ofstream out(path);
  if (!out) fail("cannot open " + path);
  const std::size_t failed = collect(out);
  obs::log(obs::LogLevel::kInfo, "wrote %s", path.c_str());
  return failed;
}

/// `bbrsweep coordinator --queue-dir DIR [options]`: plan, seed the
/// durable queue, watch progress (recovering expired leases), then stream
/// the merged outputs byte-identically to the single-process run.
int run_coordinator(int argc, char** argv) {
  Options opt = parse_args(argc, argv, /*first=*/2);
  if (!opt.queue_dir) fail("coordinator needs --queue-dir DIR");
  if (opt.run.shard.count != 1 || opt.run.shard.index != 0) {
    fail("the queue assigns cells dynamically; --shard applies to plain "
         "bbrsweep runs only");
  }
  if (opt.trace) {
    fail("the coordinator executes no cells; pass --trace to the workers "
         "or fleet and merge with `bbrsweep trace`");
  }
  std::unique_ptr<sweep::CellCache> cache;
  if (opt.cache_dir) {
    cache = std::make_unique<sweep::CellCache>(*opt.cache_dir);
    opt.run.cache = cache.get();  // adaptive triage rounds can reuse cells
  }

  const auto plan = build_plan(opt);
  orchestrator::WorkQueue queue(*opt.queue_dir, opt.lease_s,
                                opt.skew_margin_s);
  queue.seed(plan, opt.batch, opt.segment_cells);
  if (!opt.quiet) {
    obs::log(obs::LogLevel::kInfo,
             "seeded %zu cell(s) into %s (runner %s, lease %g s, skew "
             "margin %g s%s)",
             plan.size(), queue.dir().c_str(), plan.runner_name().c_str(),
             opt.lease_s, queue.skew_margin_s(),
             opt.segment_cells > 0
                 ? ", segment layout"
                 : (opt.batch > 1 ? ", batched" : ""));
  }

  while (true) {
    // The watch line reads the O(1) counters view (on the segment layout:
    // counters file + publish checkpoints, no readdir of pending/ or
    // results/; on the per-cell layout it falls back to the census).
    // The cheap done can overcount on benign double publishes, so
    // completion is confirmed against the exact distinct-cell count
    // before collecting — that cross-check is the coordinator's deep
    // verification of the counters.
    std::size_t done;
    if (opt.quiet) {
      done = queue.done_count();
    } else {
      const auto c = queue.counters();
      done = c.done;
      // The per-worker stats files double as a fleet dashboard: fold
      // them into the watch line so one terminal shows the whole run.
      std::size_t workers = 0;
      double rate = 0.0;
      for (const auto& w : queue.read_worker_stats()) {
        if (w.heartbeat_age_s > 2.0 * queue.lease_s()) continue;  // gone
        ++workers;
        // Trailing-window rate: a long-lived worker's lifetime average
        // lags its current throughput, which made this line (and the
        // autoscaler) mis-state a draining fleet.
        rate += w.window_cells_per_s;
      }
      // bbrlint:allow(no-raw-fprintf: interactive watch line — the \r
      // rewrite idiom needs an unterminated partial line, which the
      // one-line-per-call obs::log contract deliberately cannot express)
      std::fprintf(stderr,
                   "\rbbrsweep: %zu/%zu cell(s) done (%zu pending, %zu "
                   "active; %zu worker(s), %.1f cells/s)   ",
                   c.done, plan.size(), c.pending, c.active, workers, rate);
    }
    if (done >= plan.size() && queue.done_count() >= plan.size()) {
      if (!opt.quiet) std::fputc('\n', stderr);
      break;
    }
    queue.recover_expired();
    sleep_s(opt.poll_s);
  }

  std::size_t failed = 0;
  if (opt.csv_path) {
    failed = collect_to(queue, plan, *opt.csv_path, /*json=*/false);
  }
  if (opt.json_path) {
    failed = collect_to(queue, plan, *opt.json_path, /*json=*/true);
  }
  if (failed > 0) {
    obs::log(obs::LogLevel::kWarn, "%zu cell(s) failed (see status column)",
             failed);
    return 3;
  }
  return 0;
}

/// `bbrsweep worker --queue-dir DIR [worker options]`: drain cells from a
/// seeded queue until the plan is complete.
int run_worker_cmd(int argc, char** argv) {
  std::optional<std::string> queue_dir, cache_dir, worker_id;
  sweep::SweepOptions run;
  double lease_s = 60.0, skew_margin_s = -1.0, poll_s = 0.5,
         plan_wait_s = 60.0;
  bool lease_given = false, skew_given = false;
  std::size_t max_cells = 0, batch = 1, batch_cells = 1;
  bool quiet = false;
  bool trace = obs::trace_env_on();

  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) fail(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--queue-dir") {
      queue_dir = next(i);
    } else if (arg == "--threads") {
      run.threads = static_cast<std::size_t>(parse_count(next(i), "threads"));
    } else if (arg == "--cache-dir") {
      cache_dir = next(i);
    } else if (arg == "--timeout") {
      run.timeout_s = parse_double(next(i), "timeout");
    } else if (arg == "--retries") {
      run.max_attempts =
          1 + static_cast<std::size_t>(parse_count(next(i), "retries"));
    } else if (arg == "--lease") {
      lease_s = parse_positive_finite(next(i), "lease");
      lease_given = true;
    } else if (arg == "--skew-margin") {
      skew_margin_s = parse_nonnegative_finite(next(i), "skew margin");
      skew_given = true;
    } else if (arg == "--batch") {
      batch = static_cast<std::size_t>(parse_count(next(i), "batch"));
      if (batch == 0) fail("batch must be at least 1");
    } else if (arg == "--batch-cells") {
      batch_cells =
          static_cast<std::size_t>(parse_count(next(i), "batch cells"));
    } else if (arg == "--poll") {
      poll_s = parse_positive_finite(next(i), "poll");
    } else if (arg == "--plan-wait") {
      plan_wait_s = parse_nonnegative_finite(next(i), "plan wait");
    } else if (arg == "--max-cells") {
      max_cells = static_cast<std::size_t>(parse_count(next(i), "max cells"));
    } else if (arg == "--worker-id") {
      worker_id = next(i);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--log-level") {
      const std::string value = next(i);
      const auto level = obs::parse_log_level(value);
      if (!level) fail("unknown log level: " + value);
      obs::set_log_level(*level);
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      fail("unknown worker option: " + arg);
    }
  }
  if (!queue_dir) fail("worker needs --queue-dir DIR");

  double waited = 0.0;
  while (!orchestrator::WorkQueue(*queue_dir, lease_s).has_plan()) {
    if (waited == 0.0 && !quiet) {
      obs::log(obs::LogLevel::kInfo, "waiting for a plan in %s",
               queue_dir->c_str());
    }
    if (waited >= plan_wait_s) {
      fail("no plan appeared in " + *queue_dir + " (did the coordinator "
           "start?)");
    }
    sleep_s(poll_s);
    waited += poll_s;
  }
  // Adopt the coordinator's lease parameters unless given explicitly: a
  // worker with a shorter lease than its peers' heartbeat cadence would
  // keep stealing their live claims.
  if (!lease_given) {
    lease_s = orchestrator::WorkQueue::stored_lease_s(*queue_dir)
                  .value_or(lease_s);
  }
  if (!skew_given) {
    skew_margin_s =
        orchestrator::WorkQueue::stored_skew_margin_s(*queue_dir)
            .value_or(skew_margin_s);
  }
  orchestrator::WorkQueue queue(*queue_dir, lease_s, skew_margin_s);
  const auto plan = queue.load_plan();

  std::unique_ptr<sweep::CellCache> cache;
  if (cache_dir) {
    cache = std::make_unique<sweep::CellCache>(*cache_dir);
    run.cache = cache.get();
  }
  const std::string id =
      worker_id ? *worker_id : orchestrator::default_worker_id();
  obs::set_log_tag(id);
  if (!quiet) {
    obs::log(obs::LogLevel::kInfo,
             "worker %s draining %zu-cell plan from %s (runner %s%s)",
             id.c_str(), plan.size(), queue.dir().c_str(),
             plan.runner_name().c_str(),
             batch > 1 ? ", batched claims" : "");
  }
  if (trace) {
    // Each worker writes its own shard next to its stats file; `bbrsweep
    // trace` merges the shards into one fleet timeline afterwards.
    const auto shard =
        std::filesystem::path(queue.dir()) / "workers" / (id + ".trace");
    obs::Tracer::global().enable(obs::trace_env_path(shard.string()), id);
  }
  orchestrator::WorkerConfig config;
  config.worker_id = id;
  config.max_cells = max_cells;
  config.poll_s = poll_s;
  config.batch = batch;
  config.batch_cells = batch_cells;
  config.stats = true;  // cheap, and `bbrsweep status` feeds on it
  config.metrics = true;  // snapshot the registry beside the stats file
  const auto report = orchestrator::run_worker(queue, plan, run, config);
  if (trace && !obs::Tracer::global().flush()) {
    obs::log(obs::LogLevel::kWarn, "failed to write trace shard");
  }
  if (!quiet) {
    obs::log(obs::LogLevel::kInfo,
             "worker %s published %zu cell(s) (%zu failed)", id.c_str(),
             report.completed, report.failed);
  }
  return 0;
}

/// `bbrsweep fleet --queue-dir DIR --workers N [fleet options]`: keep N
/// worker processes (local or over ssh) draining one queue until its plan
/// completes, respawning the ones that die.
int run_fleet_cmd(int argc, char** argv) {
  orchestrator::FleetOptions fleet;
  const auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) fail(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  // Worker flags forward verbatim: the fleet is a process launcher, not a
  // second copy of the worker's option surface.
  const auto forward = [&](const std::string& flag, int& i) {
    fleet.worker_args.push_back(flag);
    fleet.worker_args.push_back(next(i));
  };
  bool quiet_workers = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--queue-dir") {
      fleet.queue_dir = next(i);
    } else if (arg == "--workers") {
      fleet.workers =
          static_cast<std::size_t>(parse_count(next(i), "workers"));
      if (fleet.workers == 0) fail("fleet needs at least one worker");
    } else if (arg == "--ssh") {
      fleet.ssh_hosts = split(next(i), ',');
    } else if (arg == "--remote-bbrsweep") {
      fleet.remote_command = next(i);
    } else if (arg == "--max-strikes") {
      fleet.max_strikes =
          static_cast<std::size_t>(parse_count(next(i), "max strikes"));
      if (fleet.max_strikes == 0) fail("max strikes must be at least 1");
    } else if (arg == "--autoscale") {
      const std::string value = next(i);
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        fail("--autoscale needs MIN:MAX (e.g. --autoscale 1:8)");
      }
      orchestrator::AutoscalePolicy policy;
      policy.min_workers = static_cast<std::size_t>(
          parse_count(value.substr(0, colon), "autoscale min"));
      policy.max_workers = static_cast<std::size_t>(
          parse_count(value.substr(colon + 1), "autoscale max"));
      if (policy.min_workers == 0) {
        fail("autoscale min must be at least 1");
      }
      if (policy.max_workers < policy.min_workers) {
        fail("autoscale max must be at least the min");
      }
      fleet.autoscale = policy;
    } else if (arg == "--poll") {
      // The fleet monitor and its workers poll at the same cadence.
      const std::string value = next(i);
      fleet.poll_s = parse_positive_finite(value, "poll");
      fleet.worker_args.push_back(arg);
      fleet.worker_args.push_back(value);
    } else if (arg == "--plan-wait") {
      const std::string value = next(i);
      fleet.plan_wait_s = parse_nonnegative_finite(value, "plan wait");
      fleet.worker_args.push_back(arg);
      fleet.worker_args.push_back(value);
    } else if (arg == "--batch" || arg == "--batch-cells" ||
               arg == "--threads" || arg == "--cache-dir" ||
               arg == "--timeout" || arg == "--retries" ||
               arg == "--lease" || arg == "--skew-margin" ||
               arg == "--max-cells") {
      forward(arg, i);
    } else if (arg == "--trace") {
      fleet.worker_args.push_back(arg);
    } else if (arg == "--log-level") {
      const std::string value = next(i);
      const auto level = obs::parse_log_level(value);
      if (!level) fail("unknown log level: " + value);
      obs::set_log_level(*level);
      fleet.worker_args.push_back(arg);
      fleet.worker_args.push_back(value);
    } else if (arg == "--quiet") {
      fleet.quiet = true;
      quiet_workers = true;
    } else {
      fail("unknown fleet option: " + arg);
    }
  }
  if (fleet.queue_dir.empty()) fail("fleet needs --queue-dir DIR");
  if (quiet_workers) fleet.worker_args.push_back("--quiet");
  obs::set_log_tag("fleet");

  // The binary to exec for local workers: this very binary. /proc/self/exe
  // survives PATH-relative invocation; argv[0] is the fallback.
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  fleet.self_path = ec ? argv[0] : self.string();

  const auto report = orchestrator::run_fleet(fleet);
  if (!fleet.quiet) {
    obs::log(obs::LogLevel::kInfo,
             "fleet done — %zu spawn(s), %zu respawn(s), %zu abandoned "
             "slot(s), %zu scale-up(s), %zu scale-down(s), plan %s",
             report.spawned, report.respawned, report.abandoned_slots,
             report.scale_ups, report.scale_downs,
             report.completed ? "complete" : "incomplete");
  }
  return report.completed ? 0 : 1;
}

/// `bbrsweep status --queue-dir DIR [--deep]`: one live snapshot of a
/// queue — plan and cell counts plus the per-worker stats table. The
/// default snapshot is O(1) on the segment layout: the plan header comes
/// from a bounded prefix read and the counts from the counters file plus
/// publish checkpoints — no readdir of pending/ or results/. `--deep`
/// additionally walks the store and cross-checks the cheap counters
/// against the exact census, exiting 2 when they disagree.
int run_status(int argc, char** argv) {
  std::optional<std::string> queue_dir;
  bool deep = false, json = false, metrics = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--queue-dir") {
      if (i + 1 >= argc) fail(arg + " needs a value");
      queue_dir = argv[++i];
    } else if (arg == "--deep") {
      deep = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else {
      fail("unknown status option: " + arg);
    }
  }
  if (!queue_dir) fail("status needs --queue-dir DIR");
  if (!std::filesystem::is_directory(*queue_dir)) {
    fail("no such queue directory: " + *queue_dir);
  }
  const double lease_s =
      orchestrator::WorkQueue::stored_lease_s(*queue_dir).value_or(60.0);
  const double skew_s =
      orchestrator::WorkQueue::stored_skew_margin_s(*queue_dir).value_or(
          -1.0);
  const orchestrator::WorkQueue queue(*queue_dir, lease_s, skew_s);
  if (!queue.has_plan()) {
    if (json) {
      JsonWriter j(std::cout);
      j.begin_object();
      j.key("queue").value(queue.dir());
      j.key("has_plan").value(false);
      j.end_object();
      std::cout << '\n';
    } else {
      std::printf("queue %s: no plan seeded yet\n", queue.dir().c_str());
    }
    return 0;
  }
  // Plan header from the file's first few lines (past any layout stamp):
  // status must not deserialize a million-cell plan just to print its
  // size and runner.
  std::size_t plan_cells = 0;
  std::string runner = "?";
  {
    std::ifstream in(queue.dir() + "/plan.bbrplan", std::ios::binary);
    std::string prefix(4096, '\0');
    in.read(prefix.data(), static_cast<std::streamsize>(prefix.size()));
    prefix.resize(static_cast<std::size_t>(in.gcount()));
    constexpr std::string_view kStampPrefix = "bbrm-queue-layout=";
    if (prefix.compare(0, kStampPrefix.size(), kStampPrefix) == 0) {
      const auto eol = prefix.find('\n');
      prefix.erase(0, eol == std::string::npos ? prefix.size() : eol + 1);
    }
    try {
      const auto header = orchestrator::ExecutionPlan::peek_header(prefix);
      plan_cells = header.cells;
      runner = header.runner;
    } catch (const std::exception&) {
      const auto plan = queue.load_plan();
      plan_cells = plan.size();
      runner = plan.runner_name();
    }
  }
  const auto counters = queue.counters();
  const auto workers = queue.read_worker_stats();
  // Deep cross-check first: both output formats report it, and its verdict
  // decides the exit code. The cheap view may overcount done on benign
  // duplicate publishes but must never lag the store: a cheap count under
  // the exact distinct-cell census means lost checkpoints or a corrupt
  // counters file, and downstream completion gates would stall on it.
  std::optional<orchestrator::QueueProgress> census;
  std::size_t exact_done = 0;
  bool deep_ok = true;
  if (deep) {
    census = queue.progress();
    exact_done = queue.done_count();
    deep_ok = counters.done >= exact_done;
  }
  std::vector<std::pair<std::string, obs::MetricsSnapshot>> worker_metrics;
  if (metrics) {
    for (const auto& [id, rendered] : queue.read_worker_metrics()) {
      if (auto snap = obs::parse_metrics(rendered)) {
        worker_metrics.emplace_back(id, std::move(*snap));
      }
    }
  }

  if (json) {
    JsonWriter j(std::cout);
    j.begin_object();
    j.key("queue").value(queue.dir());
    j.key("has_plan").value(true);
    j.key("plan").begin_object();
    j.key("cells").value(static_cast<std::uint64_t>(plan_cells));
    j.key("runner").value(runner);
    j.key("lease_s").value(queue.lease_s());
    j.key("skew_margin_s").value(queue.skew_margin_s());
    j.end_object();
    j.key("layout").value(
        counters.layout == orchestrator::QueueLayout::kSegment ? "segment"
                                                               : "per-cell");
    if (counters.layout == orchestrator::QueueLayout::kSegment) {
      j.key("segment_cells")
          .value(static_cast<std::uint64_t>(counters.segment_cells));
    }
    j.key("cells").begin_object();
    j.key("done").value(static_cast<std::uint64_t>(counters.done));
    j.key("pending").value(static_cast<std::uint64_t>(counters.pending));
    j.key("active").value(static_cast<std::uint64_t>(counters.active));
    j.end_object();
    if (census) {
      j.key("deep").begin_object();
      j.key("done").value(static_cast<std::uint64_t>(census->done));
      j.key("pending").value(static_cast<std::uint64_t>(census->pending));
      j.key("active").value(static_cast<std::uint64_t>(census->active));
      j.key("distinct_results").value(static_cast<std::uint64_t>(exact_done));
      j.key("consistent").value(deep_ok);
      j.end_object();
    }
    j.key("workers").begin_array();
    for (const auto& w : workers) {
      j.begin_object();
      j.key("id").value(w.worker_id);
      j.key("completed").value(static_cast<std::uint64_t>(w.completed));
      j.key("failed").value(static_cast<std::uint64_t>(w.failed));
      j.key("in_flight").value(static_cast<std::uint64_t>(w.in_flight));
      j.key("cells_per_s").value(w.window_cells_per_s);
      j.key("lifetime_cells_per_s").value(w.cells_per_s);
      j.key("heartbeat_age_s").value(w.heartbeat_age_s);
      j.end_object();
    }
    j.end_array();
    if (metrics) {
      j.key("metrics").begin_object();
      for (const auto& [id, snap] : worker_metrics) {
        j.key(id);
        obs::write_metrics_json(j, snap);
      }
      j.end_object();
    }
    j.end_object();
    std::cout << '\n';
    return deep_ok ? 0 : 2;
  }

  std::printf("queue %s\n", queue.dir().c_str());
  std::printf("plan: %zu cell(s), runner %s, lease %g s (+%g s skew "
              "margin)\n",
              plan_cells, runner.c_str(), queue.lease_s(),
              queue.skew_margin_s());
  if (counters.layout == orchestrator::QueueLayout::kSegment) {
    std::printf("layout: segment (%zu cells/segment)\n",
                counters.segment_cells);
  }
  std::printf("cells: %zu done, %zu pending, %zu active\n", counters.done,
              counters.pending, counters.active);
  if (census) {
    std::printf("deep: census %zu done, %zu pending, %zu active; "
                "%zu distinct result(s)\n",
                census->done, census->pending, census->active, exact_done);
    if (!deep_ok) {
      std::printf("deep: FAIL — counters report %zu done, store holds "
                  "%zu\n",
                  counters.done, exact_done);
      return 2;
    }
    std::printf("deep: counters consistent with store\n");
  }
  if (workers.empty()) {
    std::printf("workers: none reported yet\n");
    return 0;
  }
  // cells/s is the trailing-window rate (current throughput); lifetime is
  // the whole-run average the window falls back to before it fills.
  std::printf("%-24s %8s %8s %10s %9s %9s %12s\n", "worker", "done",
              "failed", "in-flight", "cells/s", "lifetime", "heartbeat");
  for (const auto& w : workers) {
    std::printf("%-24s %8zu %8zu %10zu %9.2f %9.2f %9.1fs ago\n",
                w.worker_id.c_str(), w.completed, w.failed, w.in_flight,
                w.window_cells_per_s, w.cells_per_s, w.heartbeat_age_s);
  }
  if (metrics) {
    for (const auto& [id, snap] : worker_metrics) {
      std::printf("metrics %s:\n", id.c_str());
      std::istringstream lines(obs::render_metrics(snap));
      for (std::string line; std::getline(lines, line);) {
        std::printf("  %s\n", line.c_str());
      }
    }
  }
  return 0;
}

/// `bbrsweep trace --queue-dir DIR [-o OUT]`: merge the per-worker trace
/// shards under DIR/workers/ into one Chrome-trace timeline. Each shard
/// becomes its own process track (pid = shard index) and timestamps are
/// rebased onto the earliest worker's start stamp, so the merged file
/// shows the whole fleet on one clock in Perfetto / chrome://tracing.
int run_trace(int argc, char** argv) {
  std::optional<std::string> queue_dir;
  std::string out = "run.trace.json";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--queue-dir") {
      if (i + 1 >= argc) fail(arg + " needs a value");
      queue_dir = argv[++i];
    } else if (arg == "-o" || arg == "--out") {
      if (i + 1 >= argc) fail(arg + " needs a value");
      out = argv[++i];
    } else {
      fail("unknown trace option: " + arg);
    }
  }
  if (!queue_dir) fail("trace needs --queue-dir DIR");
  const auto workers_dir = std::filesystem::path(*queue_dir) / "workers";
  std::vector<std::string> shards;
  if (std::filesystem::is_directory(workers_dir)) {
    for (const auto& entry :
         std::filesystem::directory_iterator(workers_dir)) {
      if (entry.is_regular_file() && entry.path().extension() == ".trace") {
        shards.push_back(entry.path().string());
      }
    }
  }
  std::sort(shards.begin(), shards.end());  // stable pid assignment
  if (shards.empty()) {
    fail("no trace shards under " + workers_dir.string() +
         " (run the workers or fleet with --trace)");
  }
  std::ostringstream merged;
  const auto report = obs::merge_trace_shards(shards, merged);
  write_text(merged.str(), out);
  obs::log(obs::LogLevel::kInfo, "merged %zu shard(s), %zu event(s) into %s",
           report.shards, report.events, out.c_str());
  return 0;
}

/// `bbrsweep plan [options]`: triage + refine, print the cell set, no
/// fine simulations.
int run_plan(int argc, char** argv) {
  Options opt = parse_args(argc, argv, /*first=*/2);
  if (opt.queue_dir || opt.lease_given || opt.poll_given || opt.skew_given ||
      opt.batch_given || opt.segment_given) {
    fail("plan never touches a queue; drop "
         "--queue-dir/--lease/--skew-margin/--batch/--segment-cells/--poll "
         "or use `bbrsweep coordinator`");
  }
  if (opt.trace) {
    fail("plan runs no fine simulations; --trace applies to sweep, worker, "
         "and fleet runs");
  }
  std::unique_ptr<sweep::CellCache> cache;
  if (opt.cache_dir) {
    cache = std::make_unique<sweep::CellCache>(*opt.cache_dir);
    opt.run.cache = cache.get();
  }
  if (!opt.quiet) {
    opt.run.progress = [](std::size_t done, std::size_t total) {
      // bbrlint:allow(no-raw-fprintf: interactive progress meter — \r
      // partial-line rewrites are outside obs::log's one-line contract)
      std::fprintf(stderr, "\rbbrsweep: %zu/%zu triage cells", done, total);
      if (done == total) std::fputc('\n', stderr);
    };
  }

  const auto plan = make_refiner(opt).plan(opt.run);
  std::ostringstream csv;
  plan.write_csv(csv);
  write_text(csv.str(), opt.csv_path.value_or("-"));
  if (!opt.quiet) report_plan(plan);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc > 1 && std::strcmp(argv[1], "merge") == 0) {
    return run_merge(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "cache") == 0) {
    return run_cache(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "plan") == 0) {
    return run_plan(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "coordinator") == 0) {
    return run_coordinator(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "worker") == 0) {
    return run_worker_cmd(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "fleet") == 0) {
    return run_fleet_cmd(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "status") == 0) {
    return run_status(argc, argv);
  }
  if (argc > 1 && std::strcmp(argv[1], "trace") == 0) {
    return run_trace(argc, argv);
  }
  Options opt = parse_args(argc, argv, /*first=*/1);
  if (opt.queue_dir) {
    fail("--queue-dir drives a distributed run; use `bbrsweep coordinator` "
         "(and `bbrsweep worker`) instead");
  }
  if (opt.lease_given || opt.poll_given || opt.skew_given ||
      opt.batch_given || opt.segment_given) {
    fail("--lease/--skew-margin/--batch/--segment-cells/--poll only apply "
         "to the coordinator, worker, and fleet subcommands");
  }
  if (opt.trace || obs::trace_env_on()) {
    // Timestamps live only in the side file: the CSV/JSON outputs stay
    // byte-identical with tracing on or off.
    obs::Tracer::global().enable(obs::trace_env_path("bbrsweep.trace"),
                                 "sweep");
  }
  std::unique_ptr<sweep::CellCache> cache;
  if (opt.cache_dir) {
    cache = std::make_unique<sweep::CellCache>(*opt.cache_dir);
    opt.run.cache = cache.get();
  }

  if (!opt.quiet) {
    opt.run.progress = [](std::size_t done, std::size_t total) {
      // bbrlint:allow(no-raw-fprintf: interactive progress meter — \r
      // partial-line rewrites are outside obs::log's one-line contract)
      std::fprintf(stderr, "\rbbrsweep: %zu/%zu experiments", done, total);
      if (done == total) std::fputc('\n', stderr);
    };
    const std::size_t total = opt.grid.cardinality();
    if (opt.adaptive) {
      obs::log(obs::LogLevel::kInfo,
               "adaptive sweep over a %zu-cell coarse grid (depth %zu, "
               "budget %zu)",
               total, opt.policy.max_depth, opt.policy.max_cells);
    } else {
      const std::size_t mine =
          total / opt.run.shard.count +
          (opt.run.shard.index < total % opt.run.shard.count ? 1 : 0);
      std::string shard_note;
      if (opt.run.shard.count > 1) {
        shard_note = " (shard " + std::to_string(opt.run.shard.index) + "/" +
                     std::to_string(opt.run.shard.count) + " of " +
                     std::to_string(total) + ")";
      }
      obs::log(obs::LogLevel::kInfo, "%zu experiments across %zu threads%s",
               mine,
               opt.run.threads ? opt.run.threads
                               : sweep::ThreadPool::hardware_threads(),
               shard_note.c_str());
    }
  }

  sweep::SweepResult result = [&] {
    if (!opt.adaptive) return sweep::run_sweep(opt.grid, opt.base, opt.run);
    const auto plan = make_refiner(opt).plan(opt.run);
    if (!opt.quiet) report_plan(plan);
    return adaptive::run_plan_tasks(plan, opt.run);
  }();

  if (opt.csv_path) write_output(result, *opt.csv_path, /*json=*/false);
  if (opt.json_path) write_output(result, *opt.json_path, /*json=*/true);

  if (obs::Tracer::global().enabled() && !obs::Tracer::global().flush()) {
    obs::log(obs::LogLevel::kWarn, "failed to write trace file");
  }
  if (!opt.quiet) {
    obs::log(obs::LogLevel::kInfo, "%zu experiments in %.2f s (%.2f/s)",
             result.size(), result.elapsed_s(),
             result.elapsed_s() > 0.0 ? result.size() / result.elapsed_s()
                                      : 0.0);
    if (cache) {
      obs::log(obs::LogLevel::kInfo, "cache %zu hit(s), %zu miss(es) in %s",
               cache->hits(), cache->misses(), cache->dir().c_str());
    }
  }
  if (result.failed() > 0) {
    obs::log(obs::LogLevel::kWarn, "%zu task(s) failed (see status column)",
             result.failed());
    return 3;
  }
  return 0;
} catch (const std::exception& e) {
  obs::log(obs::LogLevel::kError, "%s", e.what());
  return 1;
}
