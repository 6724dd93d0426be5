// Fig. 1 — Competition of sending rates between a Reno flow and a BBRv1
// flow (in % of link bandwidth), fluid model vs packet experiment.
//
// Paper shape: BBRv1 claims the dominant share within seconds while Reno is
// suppressed far below its fair half.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "common/units.h"
#include "metrics/series.h"

int main() {
  using namespace bbrmodel;
  using namespace bbrmodel::bench;

  scenario::ExperimentSpec spec = validation_spec();
  spec.mix = scenario::half_half(scenario::CcaKind::kBbrv1,
                                 scenario::CcaKind::kReno, 2);
  spec.min_rtt_s = 0.0312;
  spec.max_rtt_s = 0.0312;
  spec.buffer_bdp = 1.0;
  spec.duration_s = 10.0;

  std::printf("%s", banner("Fig. 1 — Reno vs BBRv1 sending rates").c_str());

  auto fluid = scenario::build_fluid(spec, core::Recording::kFullTrace);
  fluid.sim->run(spec.duration_s);
  const auto& trace = fluid.sim->trace();
  const auto bbr = metrics::rate_percent(trace, 0, spec.capacity_pps);
  const auto reno = metrics::rate_percent(trace, 1, spec.capacity_pps);
  const auto times = metrics::trace_times(trace);
  const std::size_t factor = std::max<std::size_t>(1, trace.size() / 20);

  Table model({"t[s]", "BBRv1[%C]", "Reno[%C]"});
  const auto t_ds = metrics::downsample(times, factor);
  const auto b_ds = metrics::downsample(bbr.values, factor);
  const auto r_ds = metrics::downsample(reno.values, factor);
  for (std::size_t k = 0; k < t_ds.size(); ++k) {
    model.add_numeric_row(format_double(t_ds[k], 2), {b_ds[k], r_ds[k]}, 1);
  }
  std::printf("Model:\n%s\n", model.to_string().c_str());

  auto packet = scenario::build_packet(spec);
  packet.net->run(spec.duration_s);
  Table experiment({"t[s]", "BBRv1[%C]", "Reno[%C]"});
  const auto& rows = packet.net->trace().rows;
  const std::size_t pfactor = std::max<std::size_t>(1, rows.size() / 20);
  for (std::size_t k = 0; k < rows.size(); k += pfactor) {
    experiment.add_numeric_row(
        format_double(rows[k].t, 2),
        {100.0 * rows[k].flow_rate_pps[0] / spec.capacity_pps,
         100.0 * rows[k].flow_rate_pps[1] / spec.capacity_pps},
        1);
  }
  std::printf("Experiment:\n%s\n", experiment.to_string().c_str());

  const auto m = metrics::evaluate_fluid(*fluid.sim, fluid.bottleneck_link);
  const auto e = packet.net->aggregate_metrics();
  const double mr = m.mean_rate_pps[0] / std::max(1.0, m.mean_rate_pps[1]);
  const double er = e.mean_rate_pps[0] / std::max(1.0, e.mean_rate_pps[1]);
  std::printf("mean-rate ratio BBRv1/Reno: model %.2f, experiment %.2f\n",
              mr, er);
  shape("BBRv1 suppresses the competing Reno flow in both the model and the "
        "experiment (ratio > 1), as in Fig. 1.");
  return 0;
}
