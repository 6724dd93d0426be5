#include "workloads.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/require.h"
#include "common/units.h"
#include "metrics/aggregate.h"
#include "orchestrator/work_queue.h"
#include "scenario/scenario.h"
#include "sweep/runner.h"
#include "sweep/sweep.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace bbrmodel;

namespace {

// bbrsweep's coordinator/worker lease, the queue's default skew margin
// (lease/4), and the library's claim poll. The CLI polls every 0.5 s;
// idle claim loops would then round off the end of a short drain.
constexpr double kLeaseS = 60.0;
constexpr double kSkewMarginS = -1.0;
constexpr double kPollS = 0.05;
constexpr const char* kWorkerId = "perfbench-worker";


core::FluidConfig pinned_fluid_config() {
  core::FluidConfig c;
  c.step_s = 50e-6;
  c.record_interval_s = 1e-3;
  c.k_time = 2000.0;
  c.k_rate = 1.0;
  c.k_vol = 10.0;
  c.k_prob = 500.0;
  c.droptail_exponent = 20.0;
  c.loss_indicator_eps = 1e-3;
  c.literal_eq18 = false;
  c.loss_based_slow_start = true;
  c.per_rtt_loss_events = true;
  c.literal_eq19 = false;
  c.probe_rtt_interval_s = 10.0;
  c.probe_rtt_duration_s = 0.2;
  c.bbr2_loss_thresh = 0.02;
  c.bbr2_beta = 0.3;
  c.bbr2_headroom = 0.15;
  c.inflight_hi_growth_pps = 1.0;
  c.mss_bytes = kDefaultMssBytes;
  c.max_rate_factor = 100.0;
  c.model_startup = false;
  c.startup_gain = 2.885;
  c.startup_initial_window_pkts = 10.0;
  c.startup_full_bw_rounds = 3;
  return c;
}

/// The §4.3 set-up as bbrsweep builds it. Mix, buffer, discipline, RTT
/// range and seed are overwritten per cell by the grid.
scenario::ExperimentSpec pinned_spec(bool smoke) {
  scenario::ExperimentSpec s;
  s.mix = {};
  s.capacity_pps = mbps_to_pps(100.0);
  s.bottleneck_delay_s = 0.010;
  s.min_rtt_s = 0.030;
  s.max_rtt_s = 0.040;
  s.flow_rtts_s = {};
  s.buffer_bdp = 1.0;
  s.discipline = net::Discipline::kDropTail;
  s.duration_s = smoke ? 0.25 : 5.0;
  s.seed = 42;
  s.fluid = pinned_fluid_config();
  s.bbr_init = nullptr;
  return s;
}

/// 7 mixes × buffers 1–7 BDP × {drop-tail, RED} × `backends`, N = 10,
/// RTT 30–40 ms.
sweep::ParameterGrid paper_axes(std::vector<sweep::Backend> backends) {
  sweep::ParameterGrid g;
  g.backends = std::move(backends);
  g.disciplines = {net::Discipline::kDropTail, net::Discipline::kRed};
  g.buffers_bdp = {1, 2, 3, 4, 5, 6, 7};
  g.flow_counts = {10};
  g.rtt_ranges = {{0.030, 0.040, sweep::RttDist::kUniform}};
  g.mixes = sweep::paper_mix_specs();
  return g;
}

/// Homogeneous BBRv1/BBRv2 × buffers 0.05–7.05 BDP × flows {2..10} × four
/// RTT spreads, drop-tail, reduced backend: 2 × 2500 × 5 × 4 = 100 000.
sweep::ParameterGrid queue_axes(bool smoke) {
  sweep::ParameterGrid g;
  g.backends = {sweep::Backend::kReduced};
  g.disciplines = {net::Discipline::kDropTail};
  const std::size_t buffers = smoke ? 50 : 2500;
  g.buffers_bdp.clear();
  for (std::size_t i = 0; i < buffers; ++i) {
    g.buffers_bdp.push_back(0.05 + 7.0 * static_cast<double>(i) /
                                       static_cast<double>(buffers - 1));
  }
  g.flow_counts = {2, 4, 6, 8, 10};
  g.rtt_ranges = {{0.010, 0.020, sweep::RttDist::kUniform},
                  {0.020, 0.030, sweep::RttDist::kUniform},
                  {0.030, 0.040, sweep::RttDist::kUniform},
                  {0.040, 0.050, sweep::RttDist::kUniform}};
  g.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
             sweep::homogeneous_mix(scenario::CcaKind::kBbrv2)};
  return g;
}

orchestrator::ExecutionPlan paper_grid_plan(std::uint64_t seed, bool smoke) {
  return orchestrator::ExecutionPlan::dense(
      paper_axes({sweep::Backend::kFluid, sweep::Backend::kPacket}),
      pinned_spec(smoke), seed, "backend");
}

/// Backend is the outermost axis, so these are paper-grid's first 98 cells
/// with the same indices and seeds.
orchestrator::ExecutionPlan worker_fluid_plan(std::uint64_t seed, bool smoke) {
  return orchestrator::ExecutionPlan::dense(
      paper_axes({sweep::Backend::kFluid}), pinned_spec(smoke), seed,
      "backend");
}

orchestrator::ExecutionPlan queue_plan(std::uint64_t seed, bool smoke) {
  scenario::ExperimentSpec base = pinned_spec(smoke);
  // The 10 ms RTT floor needs a one-way bottleneck delay of at most 5 ms
  // to be realizable should these cells ever run on a simulator backend.
  base.bottleneck_delay_s = 0.005;
  return orchestrator::ExecutionPlan::dense(queue_axes(smoke), base, seed,
                                            "backend");
}

const Workload kWorkloads[] = {
    // The figure-reproduction path: bbrsweep's default grid, batched fluid
    // cells (runner-preferred batch) beside packet cells.
    {"paper-grid", paper_grid_plan, false, 0, 0, 0, 8},
    // 100k closed-form cells: the wall time is plan codec and queue work.
    {"queue-100k", queue_plan, true, 512, 512, 1, 256},
    // The fluid half of paper-grid through bbrsweep worker's defaults:
    // one-cell segments and claims, scalar FluidSimulation per cell.
    {"worker-fluid", worker_fluid_plan, true, 1, 1, 1, 4},
};

/// A copy of backend_runner() that keeps its name, batch eligibility and
/// preferred batch (so scheduling is unchanged) but times each call into
/// the layers below it. Results are those of the library's own calls:
/// run_fluid and run_packet are exactly build, run, evaluate.
sweep::Runner traced_runner() {
  sweep::Runner r = sweep::backend_runner();
  const sweep::RunnerFn reduced = sweep::reduced_runner().run_one;
  r.run_one = [reduced](const sweep::SweepTask& task) {
    const auto cell = static_cast<std::int64_t>(task.index);
    switch (task.backend) {
      case sweep::Backend::kFluid: {
        Span call("sweep.run_one", cell);
        scenario::FluidSetup setup;
        {
          Span span("scenario.build_fluid", cell);
          setup = scenario::build_fluid(task.spec);
        }
        {
          Span span("core.fluid_run", cell);
          setup.sim->run(task.spec.duration_s);
          span.set_count(setup.sim->rhs_evals());
        }
        Span span("metrics.evaluate_fluid", cell);
        return metrics::evaluate_fluid(*setup.sim, setup.bottleneck_link);
      }
      case sweep::Backend::kPacket: {
        Span call("sweep.run_one", cell);
        scenario::PacketSetup setup;
        {
          Span span("scenario.build_packet", cell);
          setup = scenario::build_packet(task.spec);
        }
        {
          Span span("packetsim.run", cell);
          setup.net->run(task.spec.duration_s);
          span.set_count(setup.net->events().executed());
        }
        Span span("metrics.packet_aggregate", cell);
        return setup.net->aggregate_metrics();
      }
      case sweep::Backend::kReduced: {
        Span span("analysis.reduced", cell);
        return reduced(task);
      }
    }
    BBRM_REQUIRE_MSG(false, "unreachable backend");
    return metrics::AggregateMetrics{};
  };
  r.run_batch = [](const std::vector<const sweep::SweepTask*>& tasks) {
    Span call("sweep.run_batch", static_cast<std::int64_t>(tasks.front()->index));
    call.set_count(tasks.size());
    std::vector<const scenario::ExperimentSpec*> specs;
    std::uint64_t agent_steps = 0;
    for (const sweep::SweepTask* task : tasks) {
      specs.push_back(&task->spec);
      agent_steps += task->spec.mix.flows.size() *
                     static_cast<std::uint64_t>(std::llround(
                         task->spec.duration_s / task->spec.fluid.step_s));
    }
    Span span("core.fluid_batch", static_cast<std::int64_t>(tasks.front()->index));
    span.set_count(agent_steps);
    return scenario::run_fluid_batch(specs);
  };
  return r;
}

/// The SweepOptions bbrsweep (and bbrsweep worker) would build, with every
/// field pinned.
sweep::SweepOptions pinned_options(const Workload& w, std::uint64_t seed,
                                   bool traced) {
  sweep::SweepOptions o;
  o.threads = kThreads;
  o.base_seed = seed;
  o.runner = traced ? traced_runner() : sweep::Runner{};
  o.timeout_s = 0.0;
  o.max_attempts = 1;
  o.batch_cells = w.batch_cells;
  o.cache = nullptr;
  o.shard = {0, 1};
  o.progress = nullptr;
  o.refine = nullptr;
  o.triage = sweep::Runner{};
  return o;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  BBRM_REQUIRE_MSG(static_cast<bool>(in), "cannot read " + path.string());
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::ofstream open_output(const fs::path& path) {
  std::ofstream out(path, std::ios::binary);
  BBRM_REQUIRE_MSG(static_cast<bool>(out), "cannot write " + path.string());
  return out;
}

std::size_t count_files(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

PassResult run_pass(const Workload& w, const orchestrator::ExecutionPlan& plan,
                    std::uint64_t seed, const fs::path& dir, bool traced) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path csv_path = dir / "out.csv";
  const fs::path json_path = dir / "out.json";
  const fs::path queue_dir = dir / "queue";
  const sweep::SweepOptions options = pinned_options(w, seed, traced);

  PassResult out;
  if (traced) start_recording();
  const double cpu_start = cpu_seconds();
  const auto wall_start = std::chrono::steady_clock::now();
  {
    Span pass("bench.pass");
    if (!w.queue) {
      std::optional<sweep::SweepResult> result;
      {
        Span span("sweep.execute", -1, kThreads);
        result = orchestrator::execute(plan, options);
      }
      {
        Span span("sweep.write_csv");
        auto csv = open_output(csv_path);
        result->write_csv(csv);
      }
      {
        Span span("sweep.write_json");
        auto json = open_output(json_path);
        result->write_json(json);
        out.cells = result->size();
        out.failed = result->failed();
        result.reset();
      }
    } else {
      // The coordinator seeds and later collects; the worker attaches the
      // way `bbrsweep worker` does, adopting the stored lease parameters.
      std::optional<orchestrator::WorkQueue> coordinator;
      {
        Span span("orchestrator.seed");
        coordinator.emplace(queue_dir.string(), kLeaseS, kSkewMarginS);
        coordinator->seed(plan, /*batch=*/1, w.segment_cells);
      }
      std::optional<orchestrator::WorkQueue> worker;
      std::optional<orchestrator::ExecutionPlan> loaded;
      {
        Span span("orchestrator.load_plan");
        BBRM_REQUIRE_MSG(
            orchestrator::WorkQueue(queue_dir.string(), kLeaseS).has_plan(),
            "the seeded queue has no plan");
        const double lease =
            orchestrator::WorkQueue::stored_lease_s(queue_dir.string())
                .value_or(kLeaseS);
        const double skew =
            orchestrator::WorkQueue::stored_skew_margin_s(queue_dir.string())
                .value_or(kSkewMarginS);
        worker.emplace(queue_dir.string(), lease, skew);
        loaded = worker->load_plan();
      }
      {
        Span span("orchestrator.drain", -1, kThreads);
        orchestrator::WorkerConfig config;
        config.worker_id = kWorkerId;
        config.max_cells = 0;
        config.poll_s = kPollS;
        config.batch = w.claim_batch;
        config.batch_cells = w.batch_cells;
        config.stats = true;
        config.metrics = true;
        orchestrator::run_worker(*worker, *loaded, options, config);
        worker.reset();
        loaded.reset();
      }
      {
        Span span("orchestrator.collect_csv");
        auto csv = open_output(csv_path);
        out.failed = orchestrator::collect_csv(*coordinator, plan, csv);
      }
      {
        Span span("orchestrator.collect_json");
        auto json = open_output(json_path);
        orchestrator::collect_json(*coordinator, plan, json);
        coordinator.reset();
      }
      out.cells = plan.size();
    }
  }
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             wall_start)
                   .count();
  out.cpu_s = cpu_seconds() - cpu_start;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (traced) out.spans = stop_recording();

  out.csv = read_file(csv_path);
  out.json = read_file(json_path);
  if (w.queue) {
    out.plan_bytes = fs::file_size(queue_dir / "plan.bbrplan");
    out.queue_files = count_files(queue_dir);
  }
  fs::remove_all(dir);
  return out;
}

}  // namespace perfbench
