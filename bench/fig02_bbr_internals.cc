// Fig. 2 — Visualization of the BBR fluid-model variables (single flow,
// link capacity normalized to 100 %): (a) BBRv1 rates, (b) BBRv2 rates and
// inflight limits.
//
// Paper shape: (a) the pacing pulses (5/4, 3/4) around x^btl with x^max
// tracking the delivery rate; (b) the REFILL→UP→DOWN→CRUISE excursion of
// rates and the w/w_hi/v interplay.
#include <cstdio>

#include "bench_util.h"
#include "common/table.h"
#include "metrics/series.h"

int main() {
  using namespace bbrmodel;
  using namespace bbrmodel::bench;

  // (a) BBRv1, 1 s.
  {
    scenario::ExperimentSpec spec = validation_spec();
    spec.mix = scenario::homogeneous(scenario::CcaKind::kBbrv1, 1);
    spec.min_rtt_s = 0.0312;
    spec.max_rtt_s = 0.0312;
    spec.buffer_bdp = 4.0;  // roomy buffer: pure pacing dynamics
    spec.duration_s = 1.0;
    spec.fluid.step_s = 10e-6;

    auto fluid = scenario::build_fluid(spec, core::Recording::kFullTrace);
    fluid.sim->run(spec.duration_s);
    const auto& trace = fluid.sim->trace();
    const double cap = spec.capacity_pps;

    std::printf("%s", banner("Fig. 2a — BBRv1 fluid internals").c_str());
    Table t({"t[s]", "x[%C]", "x_dlv[%C]", "x_btl[%C]", "x_max[%C]"});
    const auto times = metrics::trace_times(trace);
    const auto x = metrics::rate_percent(trace, 0, cap);
    const auto dlv = metrics::delivery_percent(trace, 0, cap);
    const auto btl = metrics::btl_estimate_percent(trace, 0, cap);
    const auto max = metrics::max_measurement_percent(trace, 0, cap);
    const std::size_t f = std::max<std::size_t>(1, trace.size() / 25);
    for (std::size_t k = 0; k < trace.size(); k += f) {
      t.add_numeric_row(format_double(times[k], 3),
                        {x.values[k], dlv.values[k], btl.values[k],
                         max.values[k]},
                        1);
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  // (b) BBRv2, 0.5 s: rates and inflight limits.
  {
    scenario::ExperimentSpec spec = validation_spec();
    spec.mix = scenario::homogeneous(scenario::CcaKind::kBbrv2, 1);
    spec.min_rtt_s = 0.0312;
    spec.max_rtt_s = 0.0312;
    spec.buffer_bdp = 4.0;
    spec.duration_s = 0.5;
    spec.fluid.step_s = 10e-6;

    auto fluid = scenario::build_fluid(spec, core::Recording::kFullTrace);
    fluid.sim->run(spec.duration_s);
    const auto& trace = fluid.sim->trace();
    const double cap = spec.capacity_pps;
    const double bdp = fluid.bottleneck_bdp_pkts;

    std::printf("%s", banner("Fig. 2b — BBRv2 fluid internals").c_str());
    Table t({"t[s]", "x[%C]", "x_dlv[%C]", "x_btl[%C]", "w[%BDP]",
             "w_hi[%BDP]", "v[%BDP]"});
    const auto times = metrics::trace_times(trace);
    const auto x = metrics::rate_percent(trace, 0, cap);
    const auto dlv = metrics::delivery_percent(trace, 0, cap);
    const auto btl = metrics::btl_estimate_percent(trace, 0, cap);
    const auto w = metrics::cwnd_percent(trace, 0, bdp);
    const auto hi = metrics::inflight_hi_percent(trace, 0, bdp);
    const auto v = metrics::inflight_percent(trace, 0, bdp);
    const std::size_t f = std::max<std::size_t>(1, trace.size() / 25);
    for (std::size_t k = 0; k < trace.size(); k += f) {
      t.add_numeric_row(format_double(times[k], 3),
                        {x.values[k], dlv.values[k], btl.values[k],
                         w.values[k], hi.values[k], v.values[k]},
                        1);
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  shape("BBRv1 shows 5/4 and 3/4 pacing pulses around x_btl; BBRv2 shows the "
        "refill/up/down/cruise excursion with v bounded by w_hi (Fig. 2).");
  return 0;
}
