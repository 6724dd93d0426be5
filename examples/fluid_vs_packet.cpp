// fluid_vs_packet — a miniature of the paper's validation methodology:
// run the same scenario through the fluid model and the packet-level
// simulator and print the rate/queue traces side by side.
//
// Usage: fluid_vs_packet [cca] [seconds]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.h"
#include "common/units.h"
#include "metrics/series.h"
#include "scenario/scenario.h"

int main(int argc, char** argv) {
  using namespace bbrmodel;

  const std::string kind_arg = argc > 1 ? argv[1] : "BBRv1";
  const double duration = argc > 2 ? std::atof(argv[2]) : 5.0;

  scenario::CcaKind kind = scenario::CcaKind::kBbrv1;
  if (kind_arg == "BBRv2" || kind_arg == "bbr2") kind = scenario::CcaKind::kBbrv2;
  if (kind_arg == "RENO" || kind_arg == "reno") kind = scenario::CcaKind::kReno;
  if (kind_arg == "CUBIC" || kind_arg == "cubic")
    kind = scenario::CcaKind::kCubic;

  scenario::ExperimentSpec spec;
  spec.mix = scenario::homogeneous(kind, 1);
  spec.capacity_pps = mbps_to_pps(100.0);
  spec.min_rtt_s = 0.0312;
  spec.max_rtt_s = 0.0312;
  spec.buffer_bdp = 1.0;
  spec.duration_s = duration;

  auto fluid = scenario::build_fluid(spec, core::Recording::kFullTrace);
  fluid.sim->run(duration);
  auto packet = scenario::build_packet(spec);
  packet.net->run(duration);

  const auto& ft = fluid.sim->trace();
  const auto& pt = packet.net->trace();
  const double cap = spec.capacity_pps;
  const double fbuf =
      fluid.sim->topology().link(fluid.bottleneck_link).buffer_pkts;
  const double pbuf = spec.buffer_bdp * packet.bottleneck_bdp_pkts;

  const auto frate = metrics::rate_percent(ft, 0, cap);
  const auto fqueue = metrics::queue_percent(ft, fluid.bottleneck_link, fbuf);
  const auto ftimes = metrics::trace_times(ft);

  std::printf("%s, 100 Mbps, 31.2 ms RTT, 1 BDP drop-tail, %g s\n\n",
              spec.mix.label.c_str(), duration);
  Table table({"t[s]", "model rate[%C]", "model queue[%B]", "exp rate[%C]",
               "exp queue[%B]"});
  const std::size_t rows = 20;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t fi = r * (ft.size() - 1) / (rows - 1);
    const std::size_t pi = r * (pt.rows.size() - 1) / (rows - 1);
    table.add_numeric_row(
        format_double(ftimes[fi], 2),
        {frate.values[fi], fqueue.values[fi],
         100.0 * pt.rows[pi].flow_rate_pps[0] / cap,
         100.0 * pt.rows[pi].queue_pkts / pbuf},
        1);
  }
  std::printf("%s\n", table.to_string().c_str());

  const auto m = metrics::evaluate_fluid(*fluid.sim, fluid.bottleneck_link);
  const auto e = packet.net->aggregate_metrics();
  std::printf("model:      loss %.2f%%  occupancy %.1f%%  utilization %.1f%%\n",
              m.loss_pct, m.occupancy_pct, m.utilization_pct);
  std::printf("experiment: loss %.2f%%  occupancy %.1f%%  utilization %.1f%%\n",
              e.loss_pct, e.occupancy_pct, e.utilization_pct);
  return 0;
}
