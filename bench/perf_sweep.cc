// Sweep-engine micro-benchmark: wall-clock speedup of the threaded sweep
// over the serial baseline on a reduced aggregate grid, plus the
// cold-vs-warm speedup of the content-addressed cell cache.
//
// Prints a table of thread count vs. elapsed time and emits a
// BENCH_sweep.json summary (tasks, serial/parallel seconds, speedup,
// cache cold/warm seconds) to seed the repo's performance trajectory. The
// result CSVs of all runs — threaded, cached cold, cached warm — are
// compared as a determinism cross-check: a speedup obtained by changing
// the answers would be worthless.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "adaptive/refiner.h"
#include "bench_util.h"
#include "common/json.h"
#include "common/table.h"
#include "common/units.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sweep/cell_cache.h"
#include "sweep/sweep.h"
#include "sweep/thread_pool.h"

int main() {
  using namespace bbrmodel;
  using namespace bbrmodel::bench;
  obs::set_log_program("perf_sweep");

  // A reduced Figs. 6–10 grid: both backends and disciplines, three
  // buffers, four mixes, shorter runs — big enough to amortize pool
  // overhead, small enough for CI.
  scenario::ExperimentSpec base = validation_spec();
  base.duration_s = fast_mode() ? 1.0 : 2.0;
  sweep::ParameterGrid grid;
  grid.buffers_bdp = {1.0, 4.0, 7.0};
  grid.flow_counts = {4};
  grid.rtt_ranges = {{base.min_rtt_s, base.max_rtt_s}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::homogeneous_mix(scenario::CcaKind::kBbrv2),
                sweep::half_half_mix(scenario::CcaKind::kBbrv1,
                                     scenario::CcaKind::kCubic),
                sweep::half_half_mix(scenario::CcaKind::kBbrv2,
                                     scenario::CcaKind::kReno)};

  const std::size_t hardware = sweep::ThreadPool::hardware_threads();
  std::vector<std::size_t> thread_counts = {1};
  if (hardware >= 2) thread_counts.push_back(2);
  if (hardware > 2) thread_counts.push_back(hardware);

  std::printf("%s", banner("Sweep-engine speedup — " +
                           std::to_string(grid.cardinality()) +
                           " experiments").c_str());

  Table table({"threads", "elapsed[s]", "tasks/s", "speedup"});
  double serial_s = 0.0, best_parallel_s = 0.0;
  std::string reference_csv;
  for (const std::size_t threads : thread_counts) {
    sweep::SweepOptions options;
    options.threads = threads;
    const auto result = sweep::run_sweep(grid, base, options);

    std::ostringstream csv;
    result.write_csv(csv);
    if (reference_csv.empty()) {
      reference_csv = csv.str();
    } else if (csv.str() != reference_csv) {
      obs::log(obs::LogLevel::kError, "FAIL: results changed with %zu threads",
               threads);
      return 1;
    }

    if (threads == 1) serial_s = result.elapsed_s();
    best_parallel_s = result.elapsed_s();
    table.add_numeric_row(
        std::to_string(threads),
        {result.elapsed_s(), result.size() / result.elapsed_s(),
         serial_s / result.elapsed_s()},
        2);
  }
  std::printf("%s\n", table.to_string().c_str());

  const double speedup = serial_s / best_parallel_s;

  // ---- Runner throughput, single core ------------------------------------
  sweep::ParameterGrid fluid_grid = grid;
  fluid_grid.backends = {sweep::Backend::kFluid};
  fluid_grid.disciplines = {net::Discipline::kDropTail};
  fluid_grid.buffers_bdp = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};

  struct RunnerGauge {
    std::string name;
    std::size_t cells = 0;
    double elapsed_s = 0.0;
    double cells_per_s = 0.0;
    double ns_per_sim_s = 0.0;  ///< wall nanoseconds per simulated second
  };
  std::vector<RunnerGauge> gauges;
  const auto gauge_of = [&](std::string name,
                            const sweep::SweepResult& result,
                            double sim_s_per_cell) {
    RunnerGauge g;
    g.name = std::move(name);
    g.cells = result.size();
    g.elapsed_s = result.elapsed_s();
    g.cells_per_s = static_cast<double>(result.size()) / result.elapsed_s();
    g.ns_per_sim_s = result.elapsed_s() * 1e9 /
                     (static_cast<double>(result.size()) * sim_s_per_cell);
    return g;
  };

  sweep::SweepOptions one_core;
  one_core.threads = 1;
  const auto fluid = sweep::run_sweep(fluid_grid, base, one_core);
  gauges.push_back(gauge_of("fluid", fluid, base.duration_s));

  // Reduced (closed-form) and packet gauges, for the trajectory record.
  {
    sweep::ParameterGrid reduced_grid = fluid_grid;
    reduced_grid.backends = {sweep::Backend::kReduced};
    reduced_grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                          sweep::homogeneous_mix(scenario::CcaKind::kBbrv2)};
    const auto reduced = sweep::run_sweep(reduced_grid, base, one_core);
    gauges.push_back(gauge_of("reduced", reduced, base.duration_s));

    sweep::ParameterGrid packet_grid = fluid_grid;
    packet_grid.backends = {sweep::Backend::kPacket};
    packet_grid.buffers_bdp = {1.0, 4.0};
    packet_grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1)};
    const auto packet = sweep::run_sweep(packet_grid, base, one_core);
    gauges.push_back(gauge_of("packet", packet, base.duration_s));
  }

  std::printf("%s", banner("Runner throughput — " +
                           std::to_string(fluid_grid.cardinality()) +
                           " cells, 1 thread").c_str());
  Table runner_table({"runner", "cells", "elapsed[s]", "cells/s",
                      "ns/sim-s"});
  for (const auto& g : gauges) {
    runner_table.add_row({g.name, std::to_string(g.cells),
                          format_double(g.elapsed_s, 2),
                          format_double(g.cells_per_s, 2),
                          format_double(g.ns_per_sim_s, 0)});
  }
  std::printf("%s\n", runner_table.to_string().c_str());

  // Cold vs. warm cell cache on the same grid: the cold run pays the
  // simulations once and fills the store; the warm run must reproduce the
  // same bytes from cache alone (zero runner invocations).
  const std::string cache_dir = "BENCH_sweep_cache";
  std::filesystem::remove_all(cache_dir);
  double cold_s = 0.0, warm_s = 0.0;
  std::size_t warm_hits = 0;
  {
    sweep::CellCache cache(cache_dir);
    sweep::SweepOptions options;
    options.cache = &cache;
    const auto cold = sweep::run_sweep(grid, base, options);
    cold_s = cold.elapsed_s();
    const auto warm = sweep::run_sweep(grid, base, options);
    warm_s = warm.elapsed_s();
    warm_hits = cache.hits();

    std::ostringstream cold_csv, warm_csv;
    cold.write_csv(cold_csv);
    warm.write_csv(warm_csv);
    if (cold_csv.str() != reference_csv || warm_csv.str() != reference_csv) {
      obs::log(obs::LogLevel::kError,
               "FAIL: cached results drifted from the live run");
      return 1;
    }
  }
  std::filesystem::remove_all(cache_dir);

  Table cache_table({"cache", "elapsed[s]", "tasks/s", "speedup vs cold"});
  cache_table.add_numeric_row(
      "cold", {cold_s, grid.cardinality() / cold_s, 1.0}, 2);
  cache_table.add_numeric_row(
      "warm", {warm_s, grid.cardinality() / warm_s, cold_s / warm_s}, 2);
  std::printf("%s\n", cache_table.to_string().c_str());

  // Adaptive vs dense: the BBRv1 loss knee over the buffer axis. The
  // dense sweep simulates the fluid model at every 0.25-BDP step; the
  // adaptive sweep triages a 7-point coarse grid with the closed-form
  // reduced runner (instant), subdivides only around the knee, and pays
  // the fluid price on the refined cells alone. Both must locate the
  // knee — the buffer where loss crosses 2 % — at the same place.
  const auto wall_now = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  sweep::ParameterGrid knee_grid;
  knee_grid.backends = {sweep::Backend::kFluid};
  knee_grid.disciplines = {net::Discipline::kDropTail};
  knee_grid.flow_counts = {4};
  knee_grid.rtt_ranges = {{base.min_rtt_s, base.max_rtt_s}};
  knee_grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                     sweep::homogeneous_mix(scenario::CcaKind::kBbrv2)};

  const double kKneeDenseStep = 0.25;
  sweep::ParameterGrid dense_grid = knee_grid;
  dense_grid.buffers_bdp.clear();
  for (double b = 0.25; b <= 7.0 + 1e-9; b += kKneeDenseStep) {
    dense_grid.buffers_bdp.push_back(b);
  }
  sweep::ParameterGrid coarse_grid = knee_grid;
  coarse_grid.buffers_bdp = {0.25, 1.375, 2.5, 3.625, 4.75, 5.875, 7.0};

  double dense_wall_s = 0.0, adaptive_wall_s = 0.0;
  double t0 = wall_now();
  const auto dense = sweep::run_sweep(dense_grid, base, sweep::SweepOptions{});
  dense_wall_s = wall_now() - t0;

  adaptive::RefinementPolicy policy;
  policy.metrics = {adaptive::RefineMetric::kLoss};
  policy.threshold = 0.02;  // 2 % loss movement flags an interval
  policy.max_depth = 3;     // 1.125-BDP coarse step → 0.14 at the knee
  sweep::SweepOptions adaptive_options;  // triage defaults to reduced
  adaptive_options.refine = &policy;
  t0 = wall_now();
  const auto refined = sweep::run_sweep(coarse_grid, base, adaptive_options);
  adaptive_wall_s = wall_now() - t0;

  // The knee of one mix: buffer where loss crosses 2 %, interpolated
  // between the bracketing evaluated cells (rows of an adaptive sweep
  // arrive in canonical-spec order, so sort by buffer first).
  const auto loss_knee = [](const sweep::SweepResult& result,
                            const std::string& mix) {
    std::vector<std::pair<double, double>> curve;
    for (const auto& row : result.rows()) {
      if (row.task.mix_label == mix) {
        curve.emplace_back(row.task.spec.buffer_bdp, row.metrics.loss_pct);
      }
    }
    std::sort(curve.begin(), curve.end());
    constexpr double kLevel = 2.0;
    for (std::size_t i = 1; i < curve.size(); ++i) {
      const auto [b0, l0] = curve[i - 1];
      const auto [b1, l1] = curve[i];
      if (l0 > kLevel && l1 <= kLevel) {
        return b0 + (l0 - kLevel) / (l0 - l1) * (b1 - b0);
      }
    }
    return std::nan("");
  };
  const double dense_knee = loss_knee(dense, "BBRv1");
  const double adaptive_knee = loss_knee(refined, "BBRv1");
  const double knee_err = std::abs(adaptive_knee - dense_knee);
  const double cell_ratio = static_cast<double>(refined.size()) /
                            static_cast<double>(dense.size());
  const double kKneeTolerance = 0.5;  // BDP

  std::printf("%s", banner("Adaptive vs dense — BBRv1 loss knee over the "
                           "buffer axis").c_str());
  Table knee_table({"sweep", "cells", "knee[BDP]", "elapsed[s]",
                    "vs dense"});
  knee_table.add_row({"dense", std::to_string(dense.size()),
                      format_double(dense_knee, 2),
                      format_double(dense_wall_s, 2), "1.00"});
  knee_table.add_row({"adaptive", std::to_string(refined.size()),
                      format_double(adaptive_knee, 2),
                      format_double(adaptive_wall_s, 2),
                      format_double(adaptive_wall_s / dense_wall_s, 2)});
  std::printf("%s\n", knee_table.to_string().c_str());

  if (!(knee_err <= kKneeTolerance) || cell_ratio > 0.40) {
    obs::log(obs::LogLevel::kError,
             "FAIL: adaptive knee %.3f vs dense %.3f BDP (tolerance "
             "%.2f) at %.0f%% of the dense cells",
             adaptive_knee, dense_knee, kKneeTolerance, 100.0 * cell_ratio);
    return 1;
  }

  // ---- telemetry off-cost gate --------------------------------------------
  // Every cell pays the instrumentation hooks even with tracing disabled:
  // a handful of dead-Span constructions (one relaxed load + branch each)
  // and always-on registry updates. Price the primitives in tight loops
  // (Span's constructor lives in another TU, so the calls can't fold away
  // without LTO; counter/histogram updates are atomics with side effects)
  // and bound the per-cell cost against the fastest runner — the reduced
  // closed-form cells, whose microsecond runtimes leave the least room to
  // hide overhead in.
  obs::Tracer::global().flush();  // make sure spans take the disabled path
  const auto bench_ns = [&](auto&& fn) {
    constexpr std::size_t kIters = 2'000'000;
    const double t0 = wall_now();
    for (std::size_t i = 0; i < kIters; ++i) fn(i);
    return (wall_now() - t0) * 1e9 / static_cast<double>(kIters);
  };
  const double span_ns =
      bench_ns([](std::size_t) { obs::Span span("bench-span", "bench"); });
  // Price the single-writer shards the per-cell path actually uses, not
  // the CAS-looped shared cells reserved for rare events.
  auto& bench_counter =
      obs::Registry::global().counter("bench.counter").shard();
  const double counter_ns =
      bench_ns([&](std::size_t) { bench_counter.add(); });
  auto& bench_hist = obs::Registry::global().histogram("bench.hist").shard();
  const double hist_ns = bench_ns(
      [&](std::size_t i) { bench_hist.observe(static_cast<double>(i & 1023)); });

  // A scalar cell's instrumentation budget: the run + cache-probe spans,
  // the cells + cache-hit/miss counter bumps, and the wall-time histogram
  // observation (the engine's own span and step counters are not counted).
  const double trace_off_cell_ns =
      2.0 * span_ns + 2.0 * counter_ns + 1.0 * hist_ns;
  double fastest_cell_ns = 0.0;
  for (const auto& g : gauges) {
    const double per_cell_ns = 1e9 / g.cells_per_s;
    if (fastest_cell_ns == 0.0 || per_cell_ns < fastest_cell_ns) {
      fastest_cell_ns = per_cell_ns;
    }
  }
  const double trace_off_overhead_pct =
      100.0 * trace_off_cell_ns / fastest_cell_ns;

  std::printf("%s", banner("Telemetry cost with tracing off").c_str());
  Table trace_table({"primitive", "ns/op"});
  trace_table.add_row({"dead span", format_double(span_ns, 2)});
  trace_table.add_row({"counter add", format_double(counter_ns, 2)});
  trace_table.add_row({"histogram observe", format_double(hist_ns, 2)});
  std::printf("%s\n", trace_table.to_string().c_str());
  std::printf("per-cell instrumentation: %.0f ns = %.3f%% of the fastest "
              "cell (%.0f ns)\n\n",
              trace_off_cell_ns, trace_off_overhead_pct, fastest_cell_ns);

  const double kMaxTraceOverheadPct = 2.0;
  if (!(trace_off_overhead_pct <= kMaxTraceOverheadPct)) {
    obs::log(obs::LogLevel::kError,
             "FAIL: tracing-disabled instrumentation costs %.3f%% of "
             "the fastest cell, need <= %.1f%%",
             trace_off_overhead_pct, kMaxTraceOverheadPct);
    return 1;
  }

  std::ofstream json_out("BENCH_sweep.json");
  JsonWriter j(json_out);
  j.begin_object();
  j.key("bench").value("sweep_engine");
  j.key("tasks").value(static_cast<std::uint64_t>(grid.cardinality()));
  j.key("sim_seconds_per_task").value(base.duration_s);
  j.key("hardware_threads").value(static_cast<std::uint64_t>(hardware));
  j.key("serial_s").value(serial_s);
  j.key("parallel_s").value(best_parallel_s);
  j.key("speedup").value(speedup);
  j.key("cache_cold_s").value(cold_s);
  j.key("cache_warm_s").value(warm_s);
  j.key("cache_speedup").value(cold_s / warm_s);
  j.key("cache_warm_hits").value(static_cast<std::uint64_t>(warm_hits));
  j.key("runners").begin_object();
  for (const auto& g : gauges) {
    j.key(g.name).begin_object();
    j.key("cells").value(static_cast<std::uint64_t>(g.cells));
    j.key("elapsed_s").value(g.elapsed_s);
    j.key("cells_per_s").value(g.cells_per_s);
    j.key("ns_per_sim_s").value(g.ns_per_sim_s);
    j.end_object();
  }
  j.end_object();
  j.key("adaptive_dense_cells").value(
      static_cast<std::uint64_t>(dense.size()));
  j.key("adaptive_cells").value(static_cast<std::uint64_t>(refined.size()));
  j.key("adaptive_cell_ratio").value(cell_ratio);
  j.key("adaptive_dense_s").value(dense_wall_s);
  j.key("adaptive_s").value(adaptive_wall_s);
  j.key("adaptive_wallclock_ratio").value(adaptive_wall_s / dense_wall_s);
  j.key("adaptive_knee_dense_bdp").value(dense_knee);
  j.key("adaptive_knee_bdp").value(adaptive_knee);
  j.key("adaptive_knee_abs_err_bdp").value(knee_err);
  j.key("trace_off_span_ns").value(span_ns);
  j.key("trace_off_counter_ns").value(counter_ns);
  j.key("trace_off_hist_ns").value(hist_ns);
  j.key("trace_off_cell_ns").value(trace_off_cell_ns);
  j.key("trace_off_overhead_pct").value(trace_off_overhead_pct);
  j.key("deterministic").value(true);
  j.end_object();
  json_out << '\n';
  std::printf(
      "wrote BENCH_sweep.json (speedup %.2fx on %zu threads, warm cache "
      "%.0fx, adaptive %.0f%% of dense cells at %.2fx wall-clock)\n",
      speedup, thread_counts.back(), cold_s / warm_s, 100.0 * cell_ratio,
      adaptive_wall_s / dense_wall_s);

  shape("The threaded sweep reproduces the serial results byte-for-byte "
        "while scaling with available cores; a warm cell cache replays it "
        "with zero simulation work; reduced-theory triage steers the "
        "fluid sweep to the loss knee at a fraction of the dense cells.");
  return 0;
}
