#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/table.h"
#include "common/units.h"
#include "metrics/series.h"

namespace bbrmodel::bench {

bool fast_mode() { return std::getenv("BBRM_BENCH_FAST") != nullptr; }

std::vector<double> buffer_sweep() {
  if (fast_mode()) return {1.0, 4.0, 7.0};
  return {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
}

scenario::ExperimentSpec validation_spec() {
  scenario::ExperimentSpec spec;
  spec.capacity_pps = mbps_to_pps(100.0);
  spec.bottleneck_delay_s = 0.010;
  spec.min_rtt_s = 0.030;
  spec.max_rtt_s = 0.040;
  spec.duration_s = 5.0;
  spec.fluid.step_s = 50e-6;
  return spec;
}

scenario::ExperimentSpec short_rtt_spec() {
  scenario::ExperimentSpec spec = validation_spec();
  spec.bottleneck_delay_s = 0.005;  // Appendix C set-up
  spec.min_rtt_s = 0.010;
  spec.max_rtt_s = 0.020;
  return spec;
}

void shape(const std::string& line) {
  std::printf("SHAPE: %s\n", line.c_str());
}

void run_aggregate_figure(const std::string& title, const MetricFn& metric,
                          int precision,
                          const scenario::ExperimentSpec& base) {
  run_aggregate_figures({FigureMetric{title, metric, precision}}, base);
}

std::size_t sweep_threads() {
  const char* env = std::getenv("BBRM_SWEEP_THREADS");
  if (env == nullptr) return 0;  // hardware concurrency
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : 0;
}

sweep::CellCache* sweep_cache() {
  static std::unique_ptr<sweep::CellCache> cache = [] {
    const char* dir = std::getenv("BBRM_SWEEP_CACHE");
    return dir ? std::make_unique<sweep::CellCache>(dir) : nullptr;
  }();
  return cache.get();
}

sweep::SweepOptions bench_sweep_options(std::uint64_t base_seed) {
  sweep::SweepOptions options;
  options.threads = sweep_threads();
  options.base_seed = base_seed;
  options.cache = sweep_cache();
  return options;
}

sweep::ParameterGrid aggregate_grid(const scenario::ExperimentSpec& base) {
  sweep::ParameterGrid grid;  // paper defaults: backends, disciplines, mixes
  grid.buffers_bdp = buffer_sweep();
  grid.flow_counts = {10};
  grid.rtt_ranges = {{base.min_rtt_s, base.max_rtt_s}};
  return grid;
}

void run_aggregate_figures(const std::vector<FigureMetric>& figures,
                           const scenario::ExperimentSpec& base) {
  // One parallel sweep covers every (backend, discipline, buffer, mix)
  // cell of all requested figures; the tables below just re-bin it.
  const auto grid = aggregate_grid(base);
  const auto result =
      sweep::run_sweep(grid, base, bench_sweep_options(base.seed));

  // The tables below read backend slot 0 as "Model" and 1 as "Experiment";
  // pin that to the grid rather than trusting the default axis order.
  BBRM_REQUIRE_MSG(grid.backends.size() == 2 &&
                       grid.backends[0] == sweep::Backend::kFluid &&
                       grid.backends[1] == sweep::Backend::kPacket,
                   "aggregate figures need backends = {fluid, packet}");

  const auto& buffers = grid.buffers_bdp;
  // cells[backend][discipline][buffer][mix]
  std::vector<metrics::AggregateMetrics> flat(result.size());
  const auto cell_at = [&](std::size_t backend, std::size_t disc,
                           std::size_t buffer,
                           std::size_t mix) -> metrics::AggregateMetrics& {
    return flat[((backend * grid.disciplines.size() + disc) * buffers.size() +
                 buffer) *
                    grid.mixes.size() +
                mix];
  };
  for (const auto& r : result.rows()) {
    cell_at(r.task.at.backend, r.task.at.discipline, r.task.at.buffer,
            r.task.at.mix) = r.metrics;
  }

  std::vector<std::string> headers = {"buffer[BDP]"};
  for (const auto& mix : grid.mixes) headers.push_back(mix.label);

  for (std::size_t d = 0; d < grid.disciplines.size(); ++d) {
    const auto disc = grid.disciplines[d];
    for (const auto& fig : figures) {
      std::printf("%s",
                  banner(fig.title + " — " + net::to_string(disc)).c_str());
      Table model_table(headers);
      Table experiment_table(headers);
      for (std::size_t b = 0; b < buffers.size(); ++b) {
        std::vector<double> model_row, experiment_row;
        for (std::size_t m = 0; m < grid.mixes.size(); ++m) {
          model_row.push_back(fig.metric(cell_at(0, d, b, m)));
          experiment_row.push_back(fig.metric(cell_at(1, d, b, m)));
        }
        model_table.add_numeric_row(format_double(buffers[b], 0), model_row,
                                    fig.precision);
        experiment_table.add_numeric_row(format_double(buffers[b], 0),
                                         experiment_row, fig.precision);
      }
      std::printf("Model:\n%s\nExperiment:\n%s\n",
                  model_table.to_string().c_str(),
                  experiment_table.to_string().c_str());
    }
  }
}

void run_trace_figure(const std::string& title, scenario::CcaKind kind,
                      net::Discipline discipline, double duration_s,
                      std::size_t print_rows) {
  scenario::ExperimentSpec spec = validation_spec();
  spec.mix = scenario::homogeneous(kind, 1);
  // §4.2: d_ℓ1 = 5.6 ms access delay → RTT = 2·(10 + 5.6) ms = 31.2 ms.
  spec.min_rtt_s = 0.0312;
  spec.max_rtt_s = 0.0312;
  spec.buffer_bdp = 1.0;
  spec.discipline = discipline;
  spec.duration_s = duration_s;
  spec.fluid.step_s = 10e-6;  // the paper's trace step

  std::printf("%s", banner(title + " — " + net::to_string(discipline)).c_str());

  // Model side.
  auto fluid = scenario::build_fluid(spec, core::Recording::kFullTrace);
  fluid.sim->run(duration_s);
  const auto& trace = fluid.sim->trace();
  const auto& topo = fluid.sim->topology();
  const double cap = spec.capacity_pps;
  const double buffer = topo.link(fluid.bottleneck_link).buffer_pkts;
  const double prop = topo.path_delays(0).rtt_prop_s;

  const auto rate = metrics::rate_percent(trace, 0, cap);
  const auto queue = metrics::queue_percent(trace, fluid.bottleneck_link,
                                            buffer);
  const auto loss = metrics::loss_percent(trace, fluid.bottleneck_link);
  const auto rtt = metrics::rtt_excess_percent(trace, 0, prop);
  const std::size_t factor =
      std::max<std::size_t>(1, trace.size() / print_rows);

  Table model_table({"t[s]", "rate[%C]", "queue[%B]", "loss[%]", "rtt[+%]"});
  const auto times = metrics::trace_times(trace);
  const auto t_ds = metrics::downsample(times, factor);
  const auto r_ds = metrics::downsample(rate.values, factor);
  const auto q_ds = metrics::downsample(queue.values, factor);
  const auto l_ds = metrics::downsample(loss.values, factor);
  const auto x_ds = metrics::downsample(rtt.values, factor);
  for (std::size_t k = 0; k < t_ds.size(); ++k) {
    model_table.add_numeric_row(format_double(t_ds[k], 2),
                                {r_ds[k], q_ds[k], l_ds[k], x_ds[k]}, 1);
  }
  std::printf("Model:\n%s\n", model_table.to_string().c_str());

  // Experiment side.
  auto packet = scenario::build_packet(spec);
  packet.net->run(duration_s);
  const auto& ptr = packet.net->trace();
  const std::size_t pfactor =
      std::max<std::size_t>(1, ptr.rows.size() / print_rows);
  Table exp_table({"t[s]", "rate[%C]", "queue[%B]", "loss[%]", "srtt[+%]"});
  const double pbuffer = spec.buffer_bdp * packet.bottleneck_bdp_pkts;
  for (std::size_t k = 0; k < ptr.rows.size(); k += pfactor) {
    const auto& row = ptr.rows[k];
    const double srtt = row.flow_srtt_s[0];
    exp_table.add_numeric_row(
        format_double(row.t, 2),
        {100.0 * row.flow_rate_pps[0] / cap,
         100.0 * row.queue_pkts / pbuffer, 100.0 * row.loss_fraction,
         srtt > 0.0 ? 100.0 * (srtt / prop - 1.0) : 0.0},
        1);
  }
  std::printf("Experiment:\n%s\n", exp_table.to_string().c_str());

  // Aggregate comparison line.
  const auto m = metrics::evaluate_fluid(*fluid.sim, fluid.bottleneck_link);
  const auto e = packet.net->aggregate_metrics();
  std::printf(
      "aggregates: model(loss %.2f%%, occ %.1f%%, util %.1f%%) "
      "experiment(loss %.2f%%, occ %.1f%%, util %.1f%%)\n",
      m.loss_pct, m.occupancy_pct, m.utilization_pct, e.loss_pct,
      e.occupancy_pct, e.utilization_pct);
}

}  // namespace bbrmodel::bench
