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
// The flags live in one table (src/cli/), which parses and checks them for
// every subcommand and renders --help; this file runs the subcommands.
//
//   bbrsweep --csv sweep.csv --json sweep.json --threads 8
//   bbrsweep --mixes bbrv1,bbrv1/reno --buffers 1,4,7 --backends packet
//   bbrsweep --shard 0/2 --csv shard0.csv --cache-dir /tmp/cells
//   bbrsweep merge --csv full.csv shard0.csv shard1.csv
//   bbrsweep --adaptive --backends fluid --mixes bbrv1 --buffers 1,3,5,7
//   bbrsweep plan --backends reduced --mixes bbrv1 --refine-depth 2
//   bbrsweep cache gc --max-bytes 512M --cache-dir /tmp/cells
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adaptive/refiner.h"
#include "cli/cli.h"
#include "common/atomic_io.h"
#include "common/json.h"
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

namespace {

using namespace bbrmodel;
using cli::Options;
using cli::UsageError;

/// Run `emit` on stdout ('-') or on a fresh file at `path`.
void write_to(const std::string& path,
              const std::function<void(std::ostream&)>& emit) {
  if (path == "-") return emit(std::cout);
  std::ofstream out(path);
  if (!out) throw UsageError("cannot open " + path);
  emit(out);
  obs::log(obs::LogLevel::kInfo, "wrote %s", path.c_str());
}

std::string read_file_or_throw(const std::string& path) {
  auto bytes = read_text_file(path);
  if (!bytes) throw UsageError("cannot read " + path);
  return std::move(*bytes);
}

/// The --cache-dir store, wired into `opt.run`; null without the flag.
std::unique_ptr<sweep::CellCache> open_cache(Options& opt) {
  if (!opt.cache_dir) return nullptr;
  auto cache = std::make_unique<sweep::CellCache>(*opt.cache_dir);
  opt.run.cache = cache.get();
  return cache;
}

/// A progress callback that rewrites one stderr line: "done/total noun".
std::function<void(std::size_t, std::size_t)> progress_meter(
    const char* noun) {
  return [noun](std::size_t done, std::size_t total) {
    // bbrlint:allow(no-raw-fprintf: interactive progress meter — \r
    // partial-line rewrites are outside obs::log's one-line contract)
    std::fprintf(stderr, "\rbbrsweep: %zu/%zu %s", done, total, noun);
    if (done == total) std::fputc('\n', stderr);
  };
}

/// `bbrsweep merge (--csv OUT | --json OUT) [--plan FILE] FILE...`
int run_merge(const Options& opt) {
  // With a plan, an incomplete union names the missing cells by spec key
  // and coordinates (and a missing tail shard becomes detectable).
  sweep::MergeContext context;
  std::optional<orchestrator::ExecutionPlan> plan;
  if (opt.plan_path) {
    // A plan pulled out of a queue directory (of any layout) carries the
    // queue's layout stamp as its first line; the plan text follows it.
    plan = orchestrator::ExecutionPlan::parse(orchestrator::strip_layout_stamp(
        read_file_or_throw(*opt.plan_path)));
    context.expected_cells = plan->size();
    context.describe = [&plan](std::size_t index) {
      return plan->describe_cell(index);
    };
  }

  std::vector<std::string> inputs;
  for (const auto& path : opt.positional) {
    inputs.push_back(read_file_or_throw(path));
  }
  const std::string merged = opt.csv_path ? sweep::merge_csv(inputs, context)
                                          : sweep::merge_json(inputs, context);
  write_to(opt.csv_path ? *opt.csv_path : *opt.json_path,
           [&](std::ostream& out) { out << merged; });
  obs::log(obs::LogLevel::kInfo, "merged %zu shard file(s)", inputs.size());
  return 0;
}

/// `bbrsweep cache (stats | gc --max-bytes N | reindex) [--cache-dir DIR]`
int run_cache(const Options& opt) {
  std::optional<std::string> dir = opt.cache_dir;
  if (!dir) {
    const char* env = std::getenv("BBRM_SWEEP_CACHE");
    if (env != nullptr && env[0] != '\0') dir = env;
  }
  if (!dir) {
    throw UsageError("cache needs --cache-dir DIR (or $BBRM_SWEEP_CACHE)");
  }
  // A maintenance command must not fabricate an empty store out of a
  // mistyped path (the CellCache constructor creates its directory).
  if (!std::filesystem::is_directory(*dir)) {
    throw UsageError("no such cache directory: " + *dir);
  }

  const sweep::CellCache cache(*dir);
  const std::string& verb = opt.positional.front();
  if (verb != "gc") {
    const auto stats = verb == "reindex" ? cache.reindex() : cache.stats();
    std::printf("cells %zu\nbytes %ju\ndir %s\n", stats.cells,
                static_cast<std::uintmax_t>(stats.bytes),
                cache.dir().c_str());
    return 0;
  }
  const auto result = cache.gc(*opt.max_bytes);
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

/// `bbrsweep coordinator --queue-dir DIR [options]`: plan, seed the
/// durable queue, watch progress (recovering expired leases), then stream
/// the merged outputs byte-identically to the single-process run.
int run_coordinator(Options opt) {
  const auto cache = open_cache(opt);  // adaptive triage can reuse cells
  const auto plan = build_plan(opt);
  orchestrator::WorkQueue queue(*opt.queue_dir, opt.lease_s.value_or(60.0),
                                opt.skew_margin_s.value_or(-1.0));
  queue.seed(plan, /*batch=*/1, opt.segment_cells);
  if (!opt.quiet) {
    obs::log(obs::LogLevel::kInfo,
             "seeded %zu cell(s) into %s (runner %s, lease %g s, skew "
             "margin %g s, %zu-cell segments)",
             plan.size(), queue.dir().c_str(), plan.runner_name().c_str(),
             queue.lease_s(), queue.skew_margin_s(), opt.segment_cells);
  }

  while (true) {
    // The watch line reads the O(1) counters view. Its done count can
    // overcount on benign double publishes, so completion is confirmed
    // against the exact distinct-cell count before collecting: that
    // cross-check is the coordinator's deep verification of the counters.
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
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.poll_s));
  }

  std::size_t failed = 0;
  write_to(opt.csv_path.value_or("-"), [&](std::ostream& out) {
    failed = orchestrator::collect_csv(queue, plan, out);
  });
  if (opt.json_path) {
    write_to(*opt.json_path, [&](std::ostream& out) {
      failed = orchestrator::collect_json(queue, plan, out);
    });
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
int run_worker_cmd(Options opt) {
  const std::string& dir = *opt.queue_dir;
  double waited = 0.0;
  while (!orchestrator::WorkQueue(dir, opt.lease_s.value_or(60.0))
              .has_plan()) {
    if (waited == 0.0 && !opt.quiet) {
      obs::log(obs::LogLevel::kInfo, "waiting for a plan in %s", dir.c_str());
    }
    if (waited >= opt.plan_wait_s) {
      throw UsageError("no plan appeared in " + dir +
                       " (did the coordinator start?)");
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.poll_s));
    waited += opt.poll_s;
  }
  // Adopt the coordinator's lease parameters unless given explicitly: a
  // worker with a shorter lease than its peers' heartbeat cadence would
  // keep stealing their live claims.
  using orchestrator::WorkQueue;
  WorkQueue queue(
      dir, opt.lease_s.value_or(WorkQueue::stored_lease_s(dir).value_or(60.0)),
      opt.skew_margin_s.value_or(
          WorkQueue::stored_skew_margin_s(dir).value_or(-1.0)));
  const auto plan = queue.load_plan();

  const auto cache = open_cache(opt);
  orchestrator::WorkerConfig config = opt.worker;
  if (config.worker_id.empty()) {
    config.worker_id = orchestrator::default_worker_id();
  }
  const std::string& id = config.worker_id;
  obs::set_log_tag(id);
  if (!opt.quiet) {
    obs::log(obs::LogLevel::kInfo,
             "worker %s draining %zu-cell plan from %s (runner %s)",
             id.c_str(), plan.size(), queue.dir().c_str(),
             plan.runner_name().c_str());
  }
  const bool trace = opt.trace || obs::trace_env_on();
  if (trace) {
    // Each worker writes its own shard next to its stats file; `bbrsweep
    // trace` merges the shards into one fleet timeline afterwards.
    const auto shard =
        std::filesystem::path(queue.dir()) / "workers" / (id + ".trace");
    obs::Tracer::global().enable(obs::trace_env_path(shard.string()), id);
  }
  config.poll_s = opt.poll_s;
  config.stats = true;  // cheap, and `bbrsweep status` feeds on it
  config.metrics = true;  // snapshot the registry beside the stats file
  const auto report = orchestrator::run_worker(queue, plan, opt.run, config);
  if (trace && !obs::Tracer::global().flush()) {
    obs::log(obs::LogLevel::kWarn, "failed to write trace shard");
  }
  if (!opt.quiet) {
    obs::log(obs::LogLevel::kInfo,
             "worker %s published %zu cell(s) (%zu failed)", id.c_str(),
             report.completed, report.failed);
  }
  return 0;
}

/// `bbrsweep fleet --queue-dir DIR --workers N [fleet options]`: keep N
/// worker processes (local or over ssh) draining one queue until its plan
/// completes, respawning the ones that die. The parser already checked
/// every forwarded worker flag, so a bad one fails here before any spawn.
int run_fleet_cmd(const Options& opt, const char* argv0) {
  orchestrator::FleetOptions fleet = opt.fleet;
  fleet.queue_dir = *opt.queue_dir;
  fleet.poll_s = opt.poll_s;  // the monitor polls at its workers' cadence
  fleet.plan_wait_s = opt.plan_wait_s;
  fleet.quiet = opt.quiet;
  obs::set_log_tag("fleet");

  // The binary to exec for local workers: this very binary. /proc/self/exe
  // survives PATH-relative invocation; argv[0] is the fallback.
  std::error_code ec;
  const auto self = std::filesystem::read_symlink("/proc/self/exe", ec);
  fleet.self_path = ec ? argv0 : self.string();

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
/// default snapshot is O(1): the plan header comes from a bounded prefix
/// read and the counts from the counters file plus publish checkpoints —
/// no readdir of pending/ or results/. `--deep` additionally reads the
/// result logs and cross-checks the cheap counters against the exact
/// distinct-result count, exiting 2 when they disagree.
int run_status(const Options& opt) {
  const std::string& dir = *opt.queue_dir;
  if (!std::filesystem::is_directory(dir)) {
    throw UsageError("no such queue directory: " + dir);
  }
  using orchestrator::WorkQueue;
  const WorkQueue queue(dir, WorkQueue::stored_lease_s(dir).value_or(60.0),
                        WorkQueue::stored_skew_margin_s(dir).value_or(-1.0));
  if (!queue.has_plan()) {
    if (opt.status_json) {
      JsonWriter(std::cout).begin_object().key("queue").value(queue.dir())
          .key("has_plan").value(false).end_object();
      std::cout << '\n';
    } else {
      std::printf("queue %s: no plan seeded yet\n", queue.dir().c_str());
    }
    return 0;
  }
  // counters() comes first: it refuses a directory seeded by an older
  // bbrsweep before anything is printed.
  const auto counters = queue.counters();
  // Plan header from the file's first few lines (past the layout stamp):
  // status must not deserialize a million-cell plan just to print its
  // size and runner.
  std::size_t plan_cells = 0;
  std::string runner = "?";
  {
    std::ifstream in(queue.dir() + "/plan.bbrplan", std::ios::binary);
    std::string prefix(4096, '\0');
    in.read(prefix.data(), static_cast<std::streamsize>(prefix.size()));
    prefix.resize(static_cast<std::size_t>(in.gcount()));
    try {
      const auto header = orchestrator::ExecutionPlan::peek_header(
          orchestrator::strip_layout_stamp(std::move(prefix)));
      plan_cells = header.cells;
      runner = header.runner;
    } catch (const std::exception&) {
      const auto plan = queue.load_plan();
      plan_cells = plan.size();
      runner = plan.runner_name();
    }
  }
  const auto workers = queue.read_worker_stats();
  // Deep cross-check first: both output formats report it, and its verdict
  // decides the exit code. The cheap view may overcount done on benign
  // duplicate publishes but must never lag the store: a cheap count under
  // the exact distinct-cell count means lost checkpoints or a corrupt
  // counters file, and downstream completion gates would stall on it.
  std::optional<std::size_t> exact_done;
  bool deep_ok = true;
  if (opt.deep) {
    exact_done = queue.done_count();
    deep_ok = counters.done >= *exact_done;
  }
  std::vector<std::pair<std::string, obs::MetricsSnapshot>> worker_metrics;
  if (opt.metrics) {
    for (const auto& [id, rendered] : queue.read_worker_metrics()) {
      if (auto snap = obs::parse_metrics(rendered)) {
        worker_metrics.emplace_back(id, std::move(*snap));
      }
    }
  }

  if (opt.status_json) {
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
    j.key("segment_cells")
        .value(static_cast<std::uint64_t>(counters.segment_cells));
    j.key("cells").begin_object();
    j.key("done").value(static_cast<std::uint64_t>(counters.done));
    j.key("pending").value(static_cast<std::uint64_t>(counters.pending));
    j.key("active").value(static_cast<std::uint64_t>(counters.active));
    j.end_object();
    if (exact_done) {
      j.key("deep").begin_object();
      j.key("distinct_results")
          .value(static_cast<std::uint64_t>(*exact_done));
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
    if (opt.metrics) {
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
  std::printf("segments: %zu cell(s) each\n", counters.segment_cells);
  std::printf("cells: %zu done, %zu pending, %zu active\n", counters.done,
              counters.pending, counters.active);
  if (exact_done) {
    std::printf("deep: %zu distinct result(s)\n", *exact_done);
    if (!deep_ok) {
      std::printf("deep: FAIL — counters report %zu done, store holds "
                  "%zu\n",
                  counters.done, *exact_done);
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
  if (opt.metrics) {
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
int run_trace(const Options& opt) {
  const auto workers_dir = std::filesystem::path(*opt.queue_dir) / "workers";
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
    throw UsageError("no trace shards under " + workers_dir.string() +
                     " (run the workers or fleet with --trace)");
  }
  std::ostringstream merged;
  const auto report = obs::merge_trace_shards(shards, merged);
  write_to(opt.trace_out, [&](std::ostream& out) { out << merged.str(); });
  obs::log(obs::LogLevel::kInfo, "merged %zu shard(s), %zu event(s) into %s",
           report.shards, report.events, opt.trace_out.c_str());
  return 0;
}

/// `bbrsweep plan [options]`: triage + refine, print the cell set, no
/// fine simulations.
int run_plan(Options opt) {
  const auto cache = open_cache(opt);
  if (!opt.quiet) opt.run.progress = progress_meter("triage cells");
  const auto plan = make_refiner(opt).plan(opt.run);
  write_to(opt.csv_path.value_or("-"),
           [&](std::ostream& out) { plan.write_csv(out); });
  if (!opt.quiet) report_plan(plan);
  return 0;
}

/// `bbrsweep [options]`: run the sweep in this process.
int run_sweep(Options opt) {
  if (opt.trace || obs::trace_env_on()) {
    // Timestamps live only in the side file: the CSV/JSON outputs stay
    // byte-identical with tracing on or off.
    obs::Tracer::global().enable(obs::trace_env_path("bbrsweep.trace"),
                                 "sweep");
  }
  const auto cache = open_cache(opt);

  if (!opt.quiet) {
    opt.run.progress = progress_meter("experiments");
    const std::size_t total = opt.grid.cardinality();
    if (opt.adaptive) {
      obs::log(obs::LogLevel::kInfo,
               "adaptive sweep over a %zu-cell coarse grid (depth %zu, "
               "budget %zu)",
               total, opt.policy.max_depth, opt.policy.max_cells);
    } else {
      const auto& shard = opt.run.shard;
      const std::string note =
          shard.count == 1 ? "" : " (shard " + std::to_string(shard.index) +
                                      "/" + std::to_string(shard.count) +
                                      " of " + std::to_string(total) + ")";
      obs::log(obs::LogLevel::kInfo, "%zu experiments across %zu threads%s",
               total / shard.count + (shard.index < total % shard.count),
               opt.run.threads ? opt.run.threads
                               : sweep::ThreadPool::hardware_threads(),
               note.c_str());
    }
  }

  sweep::SweepResult result = [&] {
    if (!opt.adaptive) return sweep::run_sweep(opt.grid, opt.base, opt.run);
    const auto plan = make_refiner(opt).plan(opt.run);
    if (!opt.quiet) report_plan(plan);
    return adaptive::run_plan_tasks(plan, opt.run);
  }();

  write_to(opt.csv_path.value_or("-"),
           [&](std::ostream& out) { result.write_csv(out); });
  if (opt.json_path) {
    write_to(*opt.json_path,
             [&](std::ostream& out) { result.write_json(out); });
  }

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
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt = cli::parse(std::vector<std::string>(argv + 1, argv + argc));
  if (opt.help) {
    std::fputs(cli::usage().c_str(), stdout);
    return 0;
  }
  obs::set_log_level(opt.log_level);
  switch (opt.command) {
    case cli::Command::kSweep: return run_sweep(std::move(opt));
    case cli::Command::kPlan: return run_plan(std::move(opt));
    case cli::Command::kCoordinator: return run_coordinator(std::move(opt));
    case cli::Command::kWorker: return run_worker_cmd(std::move(opt));
    case cli::Command::kFleet: return run_fleet_cmd(opt, argv[0]);
    case cli::Command::kStatus: return run_status(opt);
    case cli::Command::kTrace: return run_trace(opt);
    case cli::Command::kMerge: return run_merge(opt);
    case cli::Command::kCache: return run_cache(opt);
  }
  return 2;
} catch (const UsageError& e) {
  obs::log(obs::LogLevel::kError, "%s (try --help)", e.what());
  return 2;
} catch (const std::exception& e) {
  obs::log(obs::LogLevel::kError, "%s", e.what());
  return 1;
}
