// Experiment scenarios: the bridge between the fluid model and the packet
// simulator.
//
// Encodes the paper's validation set-up (§4.1): a dumbbell with N senders,
// 100 Mbps bottleneck, configurable buffer (in BDP) and discipline, CCA
// mixes from the figure legends, heterogeneous RTTs in a given range.
// `build_fluid` / `build_packet` produce ready-to-run simulations of the
// same scenario, so every bench and example can print "Model" and
// "Experiment" columns side by side, exactly like the paper's figures.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bbrv1.h"
#include "core/bbrv2.h"
#include "core/engine.h"
#include "metrics/aggregate.h"
#include "net/topology.h"
#include "packetsim/network.h"

namespace bbrmodel::scenario {

/// The four congestion-control algorithms of the paper.
enum class CcaKind { kReno, kCubic, kBbrv1, kBbrv2 };

std::string to_string(CcaKind kind);

/// A per-flow CCA assignment with a display label ("BBRv1/RENO", ...).
struct CcaMix {
  std::string label;
  std::vector<CcaKind> flows;
};

/// All N flows run `kind`.
CcaMix homogeneous(CcaKind kind, std::size_t n);

/// First half runs `a`, second half `b` (the paper's N/2 + N/2 split).
CcaMix half_half(CcaKind a, CcaKind b, std::size_t n);

/// The seven mixes of the paper's aggregate figures (Figs. 6–10 legends):
/// BBRv1, BBRv1/BBRv2, BBRv1/CUBIC, BBRv1/RENO, BBRv2, BBRv2/CUBIC,
/// BBRv2/RENO.
std::vector<CcaMix> paper_mixes(std::size_t n);

/// One dumbbell experiment specification (defaults = §4.3 set-up).
struct ExperimentSpec {
  CcaMix mix;
  double capacity_pps = 8333.333333;  ///< 100 Mbps at 1500 B MSS
  double bottleneck_delay_s = 0.010;  ///< d_ℓ (one-way)
  double min_rtt_s = 0.030;           ///< total-RTT spread lower end
  double max_rtt_s = 0.040;           ///< total-RTT spread upper end
  /// Optional explicit per-flow total RTTs in seconds (asymmetric RTT
  /// workloads, e.g. Pareto/bimodal distributions expanded by the sweep
  /// grid). When non-empty it must hold one entry per flow, each at least
  /// 2·bottleneck_delay_s; min/max_rtt_s then only label the nominal
  /// spread. Empty = the legacy linear spread over [min, max].
  std::vector<double> flow_rtts_s;
  double buffer_bdp = 1.0;            ///< bottleneck buffer in BDP
  net::Discipline discipline = net::Discipline::kDropTail;
  double duration_s = 5.0;
  std::uint64_t seed = 42;            ///< packet-experiment randomness
  core::FluidConfig fluid;            ///< solver settings for the model side
  /// Optional per-flow initial conditions for fluid BBR agents (Insight 5).
  std::function<core::BbrInit(std::size_t flow)> bbr_init;
};

/// Fluid ("Model") side of the experiment, ready to run. It records what
/// `recording` asks for: the RTT series evaluate_fluid reads, or the full
/// trace too (figures and golden traces).
struct FluidSetup {
  std::unique_ptr<core::FluidSimulation> sim;
  std::size_t bottleneck_link = 0;
  double bottleneck_bdp_pkts = 0.0;
};
FluidSetup build_fluid(const ExperimentSpec& spec,
                       core::Recording recording = core::Recording::kRttOnly);

/// Packet ("Experiment") side of the experiment, ready to run.
struct PacketSetup {
  std::unique_ptr<packetsim::PacketNet> net;  ///< one link: the bottleneck
  double bottleneck_bdp_pkts = 0.0;
};
PacketSetup build_packet(const ExperimentSpec& spec);

/// Run the fluid side and return the paper's five aggregate metrics. The
/// one fluid path sweeps and queue workers use; it records no full trace.
metrics::AggregateMetrics run_fluid(const ExperimentSpec& spec);

/// Run several fluid experiments, one after another, and return one
/// metrics entry per spec, in order: run_fluid on each spec. Unused: no
/// library code calls it; it stays only because perfbench/ still calls
/// it, and ROADMAP item 4(a) deletes it.
std::vector<metrics::AggregateMetrics> run_fluid_batch(
    const std::vector<const ExperimentSpec*>& specs);

/// Run the packet side and return the same metrics.
metrics::AggregateMetrics run_packet(const ExperimentSpec& spec);

/// Factory: fluid CCA of a given kind.
std::unique_ptr<core::FluidCca> make_fluid_cca(CcaKind kind,
                                               core::BbrInit init = {});

/// Factory: packet-level CCA of a given kind.
std::unique_ptr<packetsim::PacketCca> make_packet_cca(CcaKind kind,
                                                      std::uint64_t seed);

}  // namespace bbrmodel::scenario
