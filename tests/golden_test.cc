// Golden bytes of the fluid model and of every stored format.
//
// Each digest below is an FNV-1a 64 hash of output the fluid integrator
// produced when it was recorded: sweep CSV/JSON bytes, every double of a
// simulation trace, and a parking-lot runner row. A refactor of the
// integrator, the queue laws, the delay histories or the metric
// evaluation must leave every digest unchanged; a change in any ULP of
// any recorded value shows up here. Update a constant only for an
// intended change of the model's numbers, and say so where it lands.
//
// The Golden.*Packet* cases pin the packet simulator the same way: every
// trace row, every FlowStats field of each flow, the link statistics and
// the aggregate metrics of four experiments (drop-tail and RED dumbbells
// that hit retransmission timeouts, a RED+ECN dumbbell and a 3-hop
// parking lot). A change to the event loop, the timers or the transport
// must leave them equal; the number of events executed is not pinned.
//
// Golden.StoredFormatBytes pins the bytes the codecs write to disk: plan
// files, spec keys, cache cells, queue result logs and failed-cell files.
// Old caches, result logs and queue directories stay readable only while
// these bytes do not change; a codec rewrite must leave them equal, or
// add a version line.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_io.h"
#include "common/hash.h"
#include "common/units.h"
#include "core/engine.h"
#include "net/topology.h"
#include "orchestrator/execution_plan.h"
#include "orchestrator/work_queue.h"
#include "packetsim/bbr1_cca.h"
#include "packetsim/bbr2_cca.h"
#include "packetsim/cubic_cca.h"
#include "packetsim/multihop.h"
#include "packetsim/network.h"
#include "packetsim/reno_cca.h"
#include "scenario/scenario.h"
#include "scenario/spec_codec.h"
#include "sweep/cell_cache.h"
#include "sweep/parameter_grid.h"
#include "sweep/runner.h"
#include "sweep/sweep.h"
#include "sweep/workloads.h"

namespace bbrmodel {
namespace {

/// FNV-1a 64 over a stream of values. Doubles contribute their IEEE-754
/// bit pattern in little-endian byte order, so the digest is the same on
/// every host that computes the same doubles.
class Digest {
 public:
  void add(std::uint64_t v) {
    unsigned char bytes[8];
    for (int k = 0; k < 8; ++k) {
      bytes[k] = static_cast<unsigned char>(v >> (8 * k));
    }
    hash_ = fnv1a64_bytes(bytes, sizeof bytes, hash_);
  }
  void add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v, "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }
  void add(const std::string& bytes) { hash_ = fnv1a64(bytes, hash_); }

  std::string hex() const { return hex64(hash_); }

 private:
  std::uint64_t hash_ = kFnv1a64Offset;
};

/// Every double a finished simulation exposes: the full trace (each agent
/// sample with all CCA telemetry, each link sample) and the cumulative
/// per-agent and per-link accounting.
std::string simulation_digest(const core::FluidSimulation& sim) {
  Digest d;
  const auto& trace = sim.trace();
  d.add(trace.sample_interval_s);
  d.add(static_cast<std::uint64_t>(trace.samples.size()));
  for (const auto& sample : trace.samples) {
    d.add(sample.t);
    d.add(static_cast<std::uint64_t>(sample.agents.size()));
    for (const auto& a : sample.agents) {
      d.add(a.rate_pps);
      d.add(a.delivery_rate_pps);
      d.add(a.rtt_s);
      d.add(a.cca.btl_estimate_pps);
      d.add(a.cca.max_measurement_pps);
      d.add(a.cca.cwnd_pkts);
      d.add(a.cca.inflight_pkts);
      d.add(a.cca.min_rtt_estimate_s);
      d.add(a.cca.inflight_hi_pkts);
      d.add(a.cca.inflight_lo_pkts);
      d.add(a.cca.probe_rtt);
      d.add(a.cca.probe_down);
      d.add(a.cca.cruising);
    }
    d.add(static_cast<std::uint64_t>(sample.links.size()));
    for (const auto& l : sample.links) {
      d.add(l.queue_pkts);
      d.add(l.loss_prob);
      d.add(l.arrival_pps);
    }
  }
  for (std::size_t i = 0; i < sim.num_agents(); ++i) {
    d.add(sim.sent_pkts(i));
    d.add(sim.delivered_pkts(i));
  }
  for (std::size_t l = 0; l < sim.topology().num_links(); ++l) {
    const auto& acct = sim.link_accounting(l);
    d.add(acct.arrived_pkts);
    d.add(acct.lost_pkts);
    d.add(acct.served_pkts);
    d.add(acct.queue_time_pkts_s);
    d.add(sim.queue_pkts(l));
  }
  return d.hex();
}

/// Run in two calls, so state carried across run() boundaries is covered.
void run_split(core::FluidSimulation& sim) {
  sim.run(0.2);
  sim.run(0.3);
}

std::string dumbbell_digest(scenario::CcaKind a, scenario::CcaKind b,
                            net::Discipline discipline, double buffer_bdp) {
  scenario::ExperimentSpec spec;
  spec.mix = scenario::half_half(a, b, 4);
  spec.discipline = discipline;
  spec.buffer_bdp = buffer_bdp;
  auto setup = scenario::build_fluid(spec, core::Recording::kFullTrace);
  run_split(*setup.sim);
  return simulation_digest(*setup.sim);
}

/// 7 paper mixes × {drop-tail, RED} × {1, 4} BDP, N = 4, 0.5 s, followed
/// by one Pareto-RTT cell.
std::vector<sweep::SweepTask> golden_sweep_tasks() {
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kFluid};
  grid.disciplines = {net::Discipline::kDropTail, net::Discipline::kRed};
  grid.buffers_bdp = {1.0, 4.0};
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040, sweep::RttDist::kUniform}};
  grid.mixes = sweep::paper_mix_specs();
  scenario::ExperimentSpec base;
  base.duration_s = 0.5;
  auto tasks = grid.expand(base, 42);

  scenario::ExperimentSpec pareto = base;
  pareto.mix = scenario::half_half(scenario::CcaKind::kBbrv1,
                                   scenario::CcaKind::kCubic, 4);
  pareto.buffer_bdp = 2.0;
  pareto.flow_rtts_s = sweep::rtt_samples(
      {0.030, 0.080, sweep::RttDist::kPareto}, pareto.mix.flows.size());
  tasks.push_back(sweep::make_task(tasks.size(), sweep::Backend::kFluid,
                                   pareto, 42, pareto.mix.label));
  return tasks;
}

/// The golden sweep's CSV and JSON digests under `options`.
std::pair<std::string, std::string> golden_sweep_digests(
    const sweep::SweepOptions& options) {
  const auto tasks = golden_sweep_tasks();
  EXPECT_EQ(tasks.size(), 29u);
  const auto result = sweep::run_tasks(tasks, options);
  EXPECT_EQ(result.failed(), 0u);
  std::ostringstream csv, json;
  result.write_csv(csv);
  result.write_json(json);
  Digest csv_digest, json_digest;
  csv_digest.add(csv.str());
  json_digest.add(json.str());
  return {csv_digest.hex(), json_digest.hex()};
}

TEST(Golden, FluidSweepCsvAndJsonBytes) {
  sweep::SweepOptions options;
  options.threads = 2;
  const auto [csv, json] = golden_sweep_digests(options);
  EXPECT_EQ(csv, "8ed547a786c927e1");
  EXPECT_EQ(json, "46cd783621c79d80");
}

TEST(Golden, FluidSweepBytesUnchangedUnderATimeout) {
  // A deadline poll only reads the clock, so cells that finish within
  // their budget keep every byte.
  sweep::SweepOptions options;
  options.threads = 2;
  options.timeout_s = 600.0;
  const auto [csv, json] = golden_sweep_digests(options);
  EXPECT_EQ(csv, "8ed547a786c927e1");
  EXPECT_EQ(json, "46cd783621c79d80");
}

TEST(Golden, Bbrv1CubicDumbbellTrace) {
  EXPECT_EQ(dumbbell_digest(scenario::CcaKind::kBbrv1,
                            scenario::CcaKind::kCubic,
                            net::Discipline::kDropTail, 1.0),
            "798a2e7f10c35250");
}

TEST(Golden, Bbrv2RenoDumbbellTrace) {
  EXPECT_EQ(dumbbell_digest(scenario::CcaKind::kBbrv2,
                            scenario::CcaKind::kReno, net::Discipline::kRed,
                            2.0),
            "344a1d6085381627");
}

TEST(Golden, ThreeHopParkingLotTrace) {
  net::ParkingLotSpec spec;
  spec.num_hops = 3;
  spec.cross_flows_per_hop = 1;
  spec.hop_capacity_pps = mbps_to_pps(100.0);
  const auto lot = net::make_parking_lot(spec);
  std::vector<std::unique_ptr<core::FluidCca>> agents;
  for (const auto kind :
       {scenario::CcaKind::kBbrv1, scenario::CcaKind::kBbrv2,
        scenario::CcaKind::kCubic, scenario::CcaKind::kReno}) {
    agents.push_back(scenario::make_fluid_cca(kind));
  }
  core::FluidSimulation sim(lot.topology, std::move(agents), {},
                            core::Recording::kFullTrace);
  run_split(sim);
  EXPECT_EQ(simulation_digest(sim), "9f4e868c71af7a97");
}

TEST(Golden, ParkingLotRunnerFluidRow) {
  scenario::ExperimentSpec spec;
  spec.mix = {"BBRv1+CUBIC",
              {scenario::CcaKind::kBbrv1, scenario::CcaKind::kCubic,
               scenario::CcaKind::kCubic, scenario::CcaKind::kCubic}};
  spec.duration_s = 0.5;
  sweep::SweepOptions options;
  options.threads = 1;
  options.runner = sweep::parking_lot_runner();
  const auto result = sweep::run_tasks(
      {sweep::make_task(0, sweep::Backend::kFluid, spec, 42, spec.mix.label)},
      options);
  ASSERT_EQ(result.failed(), 0u);
  std::ostringstream csv;
  result.write_csv(csv);
  Digest d;
  d.add(csv.str());
  const auto& m = result.rows().front().metrics;
  for (const double rate : m.mean_rate_pps) d.add(rate);
  for (const double aux : m.aux) d.add(aux);
  EXPECT_EQ(d.hex(), "af78cafd438828ea");
}

// The traces above run 0.5 s with N = 4. The next three reach what they
// do not: BBRv2's probing-period rollover (Eq. 24, about 2 s), ProbeRTT,
// and the STARTUP/DRAIN extension with the literal Eqs. (18) and (19).
// Each also checks that its run visits the state it pins.

/// True when some agent's cruise (m^crs, Eq. 27) ends between two trace
/// samples. Without the startup extension only a period rollover clears
/// m^crs once it is set.
bool cruise_ends(const core::FluidTrace& trace) {
  for (std::size_t k = 1; k < trace.samples.size(); ++k) {
    const auto& before = trace.samples[k - 1].agents;
    const auto& after = trace.samples[k].agents;
    for (std::size_t i = 0; i < before.size(); ++i) {
      if (before[i].cca.cruising && !after[i].cca.cruising) return true;
    }
  }
  return false;
}

/// True when `agent` is in ProbeRTT in some trace sample and out of it in
/// a later one.
bool enters_and_leaves_probe_rtt(const core::FluidTrace& trace,
                                 std::size_t agent) {
  bool entered = false;
  for (const auto& sample : trace.samples) {
    const bool in = sample.agents[agent].cca.probe_rtt;
    if (entered && !in) return true;
    entered = entered || in;
  }
  return false;
}

TEST(Golden, PaperGridBbrv2CubicCellTrace) {
  // bbrsweep's paper-grid cell (N = 10, 100 Mbps, RTTs 30–40 ms, 5 s) for
  // BBRv2/CUBIC, drop-tail, 1 BDP.
  scenario::ExperimentSpec spec;
  spec.mix = scenario::half_half(scenario::CcaKind::kBbrv2,
                                 scenario::CcaKind::kCubic, 10);
  spec.capacity_pps = mbps_to_pps(100.0);
  spec.buffer_bdp = 1.0;
  spec.discipline = net::Discipline::kDropTail;
  spec.duration_s = 5.0;
  auto setup = scenario::build_fluid(spec, core::Recording::kFullTrace);
  setup.sim->run(2.0);
  setup.sim->run(3.0);
  EXPECT_TRUE(cruise_ends(setup.sim->trace()));
  EXPECT_EQ(simulation_digest(*setup.sim), "6142772307f075bb");
}

TEST(Golden, Bbrv1Bbrv2ProbeRttTrace) {
  scenario::ExperimentSpec spec;
  spec.mix = scenario::half_half(scenario::CcaKind::kBbrv1,
                                 scenario::CcaKind::kBbrv2, 4);
  spec.buffer_bdp = 2.0;
  spec.fluid.probe_rtt_interval_s = 0.5;
  auto setup = scenario::build_fluid(spec, core::Recording::kFullTrace);
  setup.sim->run(0.6);
  setup.sim->run(0.6);
  EXPECT_TRUE(enters_and_leaves_probe_rtt(setup.sim->trace(), 0));  // BBRv1
  EXPECT_TRUE(enters_and_leaves_probe_rtt(setup.sim->trace(), 3));  // BBRv2
  EXPECT_EQ(simulation_digest(*setup.sim), "93ac58aaa6801726");
}

TEST(Golden, Bbrv1Bbrv2StartupLiteralEquationsTrace) {
  scenario::ExperimentSpec spec;
  spec.mix = scenario::half_half(scenario::CcaKind::kBbrv1,
                                 scenario::CcaKind::kBbrv2, 4);
  spec.buffer_bdp = 2.0;  // at 1 BDP the literal inflight never drains
  spec.fluid.model_startup = true;
  spec.fluid.literal_eq18 = true;
  spec.fluid.literal_eq19 = true;
  auto setup = scenario::build_fluid(spec, core::Recording::kFullTrace);
  const auto& v1 = dynamic_cast<const core::Bbrv1Fluid&>(setup.sim->cca(0));
  const auto& v2 = dynamic_cast<const core::Bbrv2Fluid&>(setup.sim->cca(3));
  ASSERT_EQ(v1.phase(), core::Bbrv1Fluid::Phase::kStartup);
  ASSERT_EQ(v2.phase(), core::Bbrv2Fluid::Phase::kStartup);
  setup.sim->run(0.4);
  setup.sim->run(0.6);
  EXPECT_EQ(v1.phase(), core::Bbrv1Fluid::Phase::kProbeBw);
  EXPECT_EQ(v2.phase(), core::Bbrv2Fluid::Phase::kProbeBw);
  EXPECT_EQ(simulation_digest(*setup.sim), "7493aa0c2442e9a0");
}

void add_flow_stats(Digest& d, const packetsim::FlowStats& s) {
  d.add(static_cast<std::uint64_t>(s.data_sent));
  d.add(static_cast<std::uint64_t>(s.retransmits));
  d.add(static_cast<std::uint64_t>(s.delivered));
  d.add(static_cast<std::uint64_t>(s.lost_marked));
  d.add(static_cast<std::uint64_t>(s.rtos));
  d.add(static_cast<std::uint64_t>(s.received));
  d.add(s.srtt_s);
  d.add(s.min_rtt_s);
  d.add(s.jitter_ms);
}

void add_link_stats(Digest& d, const packetsim::LinkStats& s) {
  d.add(static_cast<std::uint64_t>(s.arrived));
  d.add(static_cast<std::uint64_t>(s.dropped));
  d.add(static_cast<std::uint64_t>(s.marked));
  d.add(static_cast<std::uint64_t>(s.served));
  d.add(s.busy_time_s);
  d.add(s.queue_time_pkts_s);
  d.add(s.max_queue_pkts);
}

/// Every value a finished dumbbell exposes: each trace row, each flow's
/// FlowStats, the bottleneck's LinkStats and the aggregate metrics.
std::string packet_digest(const packetsim::DumbbellNet& net) {
  Digest d;
  const auto& trace = net.trace();
  d.add(trace.sample_interval_s);
  d.add(static_cast<std::uint64_t>(trace.rows.size()));
  for (const auto& row : trace.rows) {
    d.add(row.t);
    for (const double rate : row.flow_rate_pps) d.add(rate);
    for (const double srtt : row.flow_srtt_s) d.add(srtt);
    d.add(row.queue_pkts);
    d.add(row.loss_fraction);
  }
  for (std::size_t i = 0; i < net.num_flows(); ++i) {
    add_flow_stats(d, net.flow(i).stats());
  }
  add_link_stats(d, net.bottleneck().stats());
  const auto m = net.aggregate_metrics();
  d.add(m.jain);
  d.add(m.loss_pct);
  d.add(m.occupancy_pct);
  d.add(m.utilization_pct);
  d.add(m.jitter_ms);
  for (const double rate : m.mean_rate_pps) d.add(rate);
  return d.hex();
}

std::int64_t total_rtos(const packetsim::DumbbellNet& net) {
  std::int64_t rtos = 0;
  for (std::size_t i = 0; i < net.num_flows(); ++i) {
    rtos += net.flow(i).stats().rtos;
  }
  return rtos;
}

/// One paper-grid packet cell (N = 10, 1 BDP, 5 s), run in one call.
std::unique_ptr<packetsim::DumbbellNet> run_packet_cell(
    scenario::CcaKind a, scenario::CcaKind b, net::Discipline discipline) {
  scenario::ExperimentSpec spec;
  spec.mix = scenario::half_half(a, b, 10);
  spec.discipline = discipline;
  spec.buffer_bdp = 1.0;
  auto setup = scenario::build_packet(spec);
  setup.net->run(spec.duration_s);
  return std::move(setup.net);
}

TEST(Golden, Bbrv1RenoDropTailPacketCell) {
  const auto net = run_packet_cell(scenario::CcaKind::kBbrv1,
                                   scenario::CcaKind::kReno,
                                   net::Discipline::kDropTail);
  EXPECT_GT(total_rtos(*net), 0) << "the RTO timer's firing path must run";
  EXPECT_EQ(packet_digest(*net), "07997e951fc76176");
}

TEST(Golden, Bbrv1Bbrv2RedPacketCell) {
  const auto net = run_packet_cell(scenario::CcaKind::kBbrv1,
                                   scenario::CcaKind::kBbrv2,
                                   net::Discipline::kRed);
  EXPECT_GT(total_rtos(*net), 0) << "the RTO timer's firing path must run";
  EXPECT_EQ(packet_digest(*net), "75085270f7035a79");
}

TEST(Golden, RedEcnPacketDumbbell) {
  packetsim::DumbbellNet net(mbps_to_pps(100.0), 0.010, 260.0,
                             packetsim::AqmKind::kRedEcn, 7);
  net.add_flow(0.005, std::make_unique<packetsim::RenoCca>());
  net.add_flow(0.006, std::make_unique<packetsim::CubicCca>());
  net.add_flow(0.007, std::make_unique<packetsim::Bbr1Cca>(51));
  net.add_flow(0.008, std::make_unique<packetsim::Bbr2Cca>(52));
  net.run(3.0);
  EXPECT_GT(net.bottleneck().stats().marked, 0);
  EXPECT_GT(total_rtos(net), 0) << "the RTO timer's firing path must run";
  EXPECT_EQ(packet_digest(net), "e27517b72c1fb34b");
}

TEST(Golden, ParkingLotPacketNet) {
  // A long BBRv1 flow across three hops, one cross flow per hop; every
  // flow is built through Flow's egress constructor.
  packetsim::MultiHopNet lot(11);
  std::vector<std::size_t> hops;
  for (int h = 0; h < 3; ++h) {
    hops.push_back(lot.add_link(mbps_to_pps(100.0), 0.005, 130.0,
                                packetsim::AqmKind::kDropTail));
  }
  lot.add_flow(0.005, hops, std::make_unique<packetsim::Bbr1Cca>(100));
  lot.add_flow(0.005, {hops[0]}, std::make_unique<packetsim::RenoCca>());
  lot.add_flow(0.006, {hops[1]}, std::make_unique<packetsim::Bbr2Cca>(101));
  lot.add_flow(0.007, {hops[2]}, std::make_unique<packetsim::CubicCca>());
  lot.run(3.0);
  Digest d;
  for (std::size_t i = 0; i < lot.num_flows(); ++i) {
    add_flow_stats(d, lot.flow(i).stats());
  }
  for (const std::size_t h : hops) add_link_stats(d, lot.link(h).stats());
  for (const double rate : lot.mean_rates_pps()) d.add(rate);
  d.add(lot.jain());
  EXPECT_EQ(d.hex(), "9e6fbff1909c63a7");
}

/// A spec with every kind of codec field off its default: a labelled
/// mix, per-flow RTT vectors, RED, a 64-bit seed, booleans and an int.
scenario::ExperimentSpec stored_spec() {
  scenario::ExperimentSpec spec;
  spec.mix = scenario::half_half(scenario::CcaKind::kBbrv2,
                                 scenario::CcaKind::kCubic, 6);
  spec.capacity_pps = mbps_to_pps(250.0);
  spec.bottleneck_delay_s = 0.007;
  spec.min_rtt_s = 0.021;
  spec.max_rtt_s = 0.055;
  spec.buffer_bdp = 1.0 / 3.0;
  spec.flow_rtts_s = {0.021, 0.025, 0.032, 0.040, 0.048, 0.055};
  spec.discipline = net::Discipline::kRed;
  spec.duration_s = 2.25;
  spec.seed = 0xfeedfacecafebeefULL;
  spec.fluid.step_s = 25e-6;
  spec.fluid.literal_eq18 = true;
  spec.fluid.model_startup = true;
  spec.fluid.startup_full_bw_rounds = -5;
  spec.fluid.bbr2_beta = 0.35;
  spec.fluid.loss_indicator_eps = 1e-300;
  return spec;
}

TEST(Golden, StoredFormatBytes) {
  // A small plan: two backends x two mixes x two buffers, from stored_spec.
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kFluid, sweep::Backend::kReduced};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp = {0.1, 2.5};
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040, sweep::RttDist::kUniform}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::half_half_mix(scenario::CcaKind::kBbrv2,
                                     scenario::CcaKind::kReno)};
  const auto plan = orchestrator::ExecutionPlan::dense(grid, stored_spec(), 7);
  ASSERT_EQ(plan.size(), 8u);
  Digest plan_digest;
  plan_digest.add(plan.serialize());
  EXPECT_EQ(plan_digest.hex(), "c6e06fd9a30d39cd");

  EXPECT_EQ(scenario::canonical_spec_hash(stored_spec()), "215a5b5c5fa4d94a");

  metrics::AggregateMetrics m;
  m.jain = std::numeric_limits<double>::quiet_NaN();
  m.loss_pct = -0.0;
  m.occupancy_pct = std::numeric_limits<double>::denorm_min() * 12345.0;
  m.utilization_pct = 1e21;
  m.jitter_ms = 1.0 / 3.0;
  for (int i = 0; i < 10; ++i) {
    m.mean_rate_pps.push_back(20833.333333333332 / (i + 1) + 1e-7 * i);
  }
  m.aux = {-2.5e-310, 0.1, 123456789.0};
  Digest cell_digest;
  cell_digest.add(sweep::encode_cell_metrics(m));
  EXPECT_EQ(cell_digest.hex(), "03db8b381a1f4d50");

  // Three fixed ok results published through the queue's public API (out
  // of index order), plus one failed result, which goes to its own file.
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "golden_stored_queue";
  std::filesystem::remove_all(dir);
  {
    orchestrator::WorkQueue queue(dir.string());
    sweep::TaskResult result;
    result.task = plan.cell(5);
    result.metrics = m;
    queue.publish(result, "golden-w");
    result.task = plan.cell(2);
    result.metrics.jain = 0.75;
    result.metrics.loss_pct = 1e-3;
    result.metrics.mean_rate_pps = {1.0, 2.0};
    result.metrics.aux.clear();
    queue.publish(result, "golden-w");
    result.task = plan.cell(0);
    result.metrics.occupancy_pct = 42.0;
    result.metrics.mean_rate_pps.clear();
    queue.publish(result, "golden-w");
    result.task = plan.cell(7);
    result.ok = false;
    result.error = "timed out after 1 s";
    queue.publish(result, "golden-w");
  }
  const auto log = read_text_file((dir / "results" / "golden-w.rlog").string());
  const auto failed =
      read_text_file((dir / "failed" / "0000000007.cell").string());
  ASSERT_TRUE(log.has_value());
  ASSERT_TRUE(failed.has_value());
  Digest log_digest;
  log_digest.add(*log);
  EXPECT_EQ(log_digest.hex(), "4f5e83d67deec602");
  Digest failed_digest;
  failed_digest.add(*failed);
  EXPECT_EQ(failed_digest.hex(), "8e8358b3983a540c");
  std::filesystem::remove_all(dir);
}

}  // namespace

namespace core {
namespace {

TEST(BatchEngine, EmptyBatchIsANoop) {
  const std::vector<const scenario::ExperimentSpec*> none;
  EXPECT_TRUE(scenario::run_fluid_batch(none).empty());
}

}  // namespace
}  // namespace core
}  // namespace bbrmodel
