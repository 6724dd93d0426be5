#include "scenario/scenario.h"

#include <algorithm>

#include "cca/cubic.h"
#include "cca/reno.h"
#include "common/require.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "packetsim/bbr1_cca.h"
#include "packetsim/bbr2_cca.h"
#include "packetsim/cubic_cca.h"
#include "packetsim/reno_cca.h"

namespace bbrmodel::scenario {

std::string to_string(CcaKind kind) {
  switch (kind) {
    case CcaKind::kReno:
      return "RENO";
    case CcaKind::kCubic:
      return "CUBIC";
    case CcaKind::kBbrv1:
      return "BBRv1";
    case CcaKind::kBbrv2:
      return "BBRv2";
  }
  return "unknown";
}

CcaMix homogeneous(CcaKind kind, std::size_t n) {
  BBRM_REQUIRE(n > 0);
  return CcaMix{to_string(kind), std::vector<CcaKind>(n, kind)};
}

CcaMix half_half(CcaKind a, CcaKind b, std::size_t n) {
  BBRM_REQUIRE(n >= 2);
  CcaMix mix;
  mix.label = to_string(a) + "/" + to_string(b);
  mix.flows.assign(n, b);
  for (std::size_t i = 0; i < n / 2; ++i) mix.flows[i] = a;
  return mix;
}

std::vector<CcaMix> paper_mixes(std::size_t n) {
  return {
      homogeneous(CcaKind::kBbrv1, n),
      half_half(CcaKind::kBbrv1, CcaKind::kBbrv2, n),
      half_half(CcaKind::kBbrv1, CcaKind::kCubic, n),
      half_half(CcaKind::kBbrv1, CcaKind::kReno, n),
      homogeneous(CcaKind::kBbrv2, n),
      half_half(CcaKind::kBbrv2, CcaKind::kCubic, n),
      half_half(CcaKind::kBbrv2, CcaKind::kReno, n),
  };
}

std::unique_ptr<core::FluidCca> make_fluid_cca(CcaKind kind,
                                               core::BbrInit init) {
  switch (kind) {
    case CcaKind::kReno:
      return std::make_unique<cca::RenoFluid>();
    case CcaKind::kCubic:
      return std::make_unique<cca::CubicFluid>();
    case CcaKind::kBbrv1:
      return std::make_unique<core::Bbrv1Fluid>(init);
    case CcaKind::kBbrv2:
      return std::make_unique<core::Bbrv2Fluid>(init);
  }
  return nullptr;
}

std::unique_ptr<packetsim::PacketCca> make_packet_cca(CcaKind kind,
                                                      std::uint64_t seed) {
  switch (kind) {
    case CcaKind::kReno:
      return std::make_unique<packetsim::RenoCca>();
    case CcaKind::kCubic:
      return std::make_unique<packetsim::CubicCca>();
    case CcaKind::kBbrv1:
      return std::make_unique<packetsim::Bbr1Cca>(seed);
    case CcaKind::kBbrv2:
      return std::make_unique<packetsim::Bbr2Cca>(seed);
  }
  return nullptr;
}

namespace {

net::DumbbellSpec dumbbell_spec(const ExperimentSpec& spec) {
  BBRM_REQUIRE_MSG(!spec.mix.flows.empty(), "a mix with flows is required");
  net::DumbbellSpec ds;
  ds.num_senders = spec.mix.flows.size();
  ds.bottleneck_capacity_pps = spec.capacity_pps;
  ds.bottleneck_delay_s = spec.bottleneck_delay_s;
  if (spec.flow_rtts_s.empty()) {
    ds.access_delays_s = net::spread_access_delays(
        ds.num_senders, spec.min_rtt_s, spec.max_rtt_s,
        spec.bottleneck_delay_s);
  } else {
    BBRM_REQUIRE_MSG(spec.flow_rtts_s.size() == ds.num_senders,
                     "flow_rtts_s must have one RTT per flow");
    ds.access_delays_s.reserve(ds.num_senders);
    for (const double rtt : spec.flow_rtts_s) {
      BBRM_REQUIRE_MSG(rtt / 2.0 >= spec.bottleneck_delay_s,
                       "per-flow RTT too small for the bottleneck delay");
      ds.access_delays_s.push_back(rtt / 2.0 - spec.bottleneck_delay_s);
    }
  }
  ds.buffer_bdp = spec.buffer_bdp;
  ds.discipline = spec.discipline;
  return ds;
}

double mean_rtt_s(const ExperimentSpec& spec) {
  if (spec.flow_rtts_s.empty()) {
    return (spec.min_rtt_s + spec.max_rtt_s) / 2.0;
  }
  double sum = 0.0;
  for (const double rtt : spec.flow_rtts_s) sum += rtt;
  return sum / static_cast<double>(spec.flow_rtts_s.size());
}

}  // namespace

FluidSetup build_fluid(const ExperimentSpec& spec,
                       core::Recording recording) {
  const auto ds = dumbbell_spec(spec);
  auto dumbbell = net::make_dumbbell(ds);

  std::vector<std::unique_ptr<core::FluidCca>> agents;
  agents.reserve(spec.mix.flows.size());
  for (std::size_t i = 0; i < spec.mix.flows.size(); ++i) {
    core::BbrInit init;
    if (spec.bbr_init) init = spec.bbr_init(i);
    agents.push_back(make_fluid_cca(spec.mix.flows[i], init));
  }

  FluidSetup setup;
  setup.bottleneck_link = dumbbell.bottleneck_link;
  setup.bottleneck_bdp_pkts = dumbbell.bottleneck_bdp_pkts;
  setup.sim = std::make_unique<core::FluidSimulation>(
      std::move(dumbbell.topology), std::move(agents), spec.fluid, recording);
  return setup;
}

PacketSetup build_packet(const ExperimentSpec& spec) {
  const auto ds = dumbbell_spec(spec);
  const double mean_rtt = mean_rtt_s(spec);
  PacketSetup setup;
  setup.bottleneck_bdp_pkts = spec.capacity_pps * mean_rtt;

  packetsim::AqmKind aqm = spec.discipline == net::Discipline::kRed
                               ? packetsim::AqmKind::kRed
                               : packetsim::AqmKind::kDropTail;
  // RED operating point anchored at the BDP (not the buffer), like a fixed
  // tc-red deployment across the paper's buffer sweep.
  packetsim::RedThresholds red;
  red.min_pkts = 0.10 * setup.bottleneck_bdp_pkts;
  red.max_pkts = 0.50 * setup.bottleneck_bdp_pkts;
  setup.net = std::make_unique<packetsim::PacketNet>(spec.seed);
  const std::size_t bottleneck = setup.net->add_link(
      spec.capacity_pps, spec.bottleneck_delay_s,
      std::max(1.0, spec.buffer_bdp * setup.bottleneck_bdp_pkts), aqm, red);
  for (std::size_t i = 0; i < spec.mix.flows.size(); ++i) {
    setup.net->add_flow(ds.access_delays_s[i], {bottleneck},
                        make_packet_cca(spec.mix.flows[i],
                                        spec.seed + 1000 + i));
  }
  return setup;
}

namespace {

obs::Counter& fluid_step_counter() {
  static obs::Counter& c = obs::Registry::global().counter("engine.fluid_steps");
  return c;
}

obs::Counter& rhs_eval_counter() {
  static obs::Counter& c = obs::Registry::global().counter("engine.rhs_evals");
  return c;
}

}  // namespace

metrics::AggregateMetrics run_fluid(const ExperimentSpec& spec) {
  auto setup = build_fluid(spec);
  {
    obs::Span span("fluid-run", "engine");
    setup.sim->run(spec.duration_s);
    span.arg("steps", static_cast<std::uint64_t>(setup.sim->steps()));
    span.arg("rhs_evals", static_cast<std::uint64_t>(setup.sim->rhs_evals()));
  }
  fluid_step_counter().add(setup.sim->steps());
  rhs_eval_counter().add(setup.sim->rhs_evals());
  return metrics::evaluate_fluid(*setup.sim, setup.bottleneck_link);
}

std::vector<metrics::AggregateMetrics> run_fluid_batch(
    const std::vector<const ExperimentSpec*>& specs) {
  std::vector<metrics::AggregateMetrics> out;
  out.reserve(specs.size());
  for (const ExperimentSpec* spec : specs) {
    BBRM_REQUIRE_MSG(spec != nullptr, "null spec in fluid batch");
    out.push_back(run_fluid(*spec));
  }
  return out;
}

metrics::AggregateMetrics run_packet(const ExperimentSpec& spec) {
  auto setup = build_packet(spec);
  {
    obs::Span span("packet-run", "engine");
    span.arg("duration_s", spec.duration_s);
    setup.net->run(spec.duration_s);
  }
  obs::Registry::global().counter("engine.packet_runs").add();
  return setup.net->aggregate_metrics();
}

}  // namespace bbrmodel::scenario
