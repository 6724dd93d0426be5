// The fluid-model simulation engine (the paper's "model-based computations").
//
// Couples the network fluid model of §2 (delayed arrival rates, queue ODEs,
// loss laws, latencies) with one FluidCca per agent (§3, Appendix B) and
// integrates the resulting delay-differential system with the method of
// steps (§4.1.1). Delayed signals are served from fixed-step histories.
//
// The step is laid out for a sweep's thousands of cells: paths are
// flattened into index arrays, every fixed-horizon signal shares one
// time-major history matrix (one row per grid time), the delayed reads at
// constant delays go through a per-step tap table, and stepping allocates
// nothing except the samples it records. A sweep cell records only the
// per-agent RTT series its metrics read; the full trace is opt-in.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fluid_cca.h"
#include "core/fluid_config.h"
#include "core/trace.h"
#include "net/queue_law.h"
#include "net/topology.h"
#include "ode/history.h"

namespace bbrmodel::core {

/// Cumulative per-link accounting (for utilization/loss/occupancy metrics).
struct LinkAccounting {
  double arrived_pkts = 0.0;  ///< ∫ y dt
  double lost_pkts = 0.0;     ///< ∫ p·y dt
  double served_pkts = 0.0;   ///< ∫ service dt
  double queue_time_pkts_s = 0.0;  ///< ∫ q dt (time-average queue = this / T)
};

/// What a run records at each record tick (config.record_interval_s).
/// Every run keeps each agent's RTT, the one sampled value the aggregate
/// metrics read (jitter). kFullTrace also keeps the FluidTrace: every rate,
/// CCA variable and link state, about 1 kB per tick for ten flows. The
/// owner of a simulation chooses; it is not part of FluidConfig, so it
/// never enters a spec or a cache key.
enum class Recording { kRttOnly, kFullTrace };

/// Coupled network + CCA fluid simulation.
class FluidSimulation {
 public:
  /// One CCA per agent; agents_.size() must equal topology.num_agents().
  FluidSimulation(net::Topology topology,
                  std::vector<std::unique_ptr<FluidCca>> agents,
                  FluidConfig config = {},
                  Recording recording = Recording::kRttOnly);

  /// Every agent keeps a pointer to this simulation's config
  /// (AgentContext::config), so the simulation stays where it was built.
  FluidSimulation(const FluidSimulation&) = delete;
  FluidSimulation& operator=(const FluidSimulation&) = delete;

  /// Advance the simulation by `duration` seconds. Throws
  /// DeadlineExceeded, between two steps, once the calling thread's
  /// deadline has passed (common/deadline.h).
  void run(double duration);

  double now() const { return static_cast<double>(step_count_) * config_.step_s; }

  /// Steps taken so far; each step evaluates every agent's rate dynamics
  /// once, so rhs_evals() = steps() × num_agents(). Telemetry spans attach
  /// these so traces show solver work, not just wall time.
  std::size_t steps() const { return step_count_; }
  std::size_t rhs_evals() const { return step_count_ * agents_.size(); }

  const net::Topology& topology() const { return topology_; }
  const FluidConfig& config() const { return config_; }
  std::size_t num_agents() const { return agents_.size(); }

  /// Current queue length of a link (packets).
  double queue_pkts(std::size_t link) const;

  /// Cumulative volume sent / delivered per agent (packets).
  double sent_pkts(std::size_t agent) const;
  double delivered_pkts(std::size_t agent) const;

  const LinkAccounting& link_accounting(std::size_t link) const;

  /// The recorded trace (sampled every config.record_interval_s). Throws
  /// PreconditionError unless the simulation was built with
  /// Recording::kFullTrace, so a reader of a lean run fails, not loops over
  /// nothing.
  const FluidTrace& trace() const;

  /// Each agent's RTT at every record tick, whatever the Recording.
  const RttSeries& rtt_series() const { return rtt_; }

  /// The CCA driving an agent (for test inspection).
  const FluidCca& cca(std::size_t agent) const;

 private:
  std::uint32_t tap_of(double delay);
  void compute_taps(double t);
  double read(std::uint32_t sig, std::uint32_t tap, double t) const;
  void step();
  void record_sample(double t);

  net::Topology topology_;
  std::vector<std::unique_ptr<FluidCca>> agents_;
  FluidConfig config_;
  net::LossLawParams loss_params_;
  std::vector<AgentContext> contexts_;
  std::vector<net::Link> links_;

  // Flattened paths: agent i's links, and the taps of their forward and
  // backward delays, occupy [path_off_[i], path_off_[i + 1]).
  std::vector<std::uint32_t> path_off_;
  std::vector<std::uint32_t> path_links_;
  std::vector<std::uint32_t> fwd_tap_;
  std::vector<std::uint32_t> bwd_tap_;
  // Per agent: bottleneck link, and the taps of the path RTT and of the
  // backward delay from the bottleneck (its last position on the path).
  std::vector<std::uint32_t> bottleneck_;
  std::vector<std::uint32_t> rtt_tap_;
  std::vector<std::uint32_t> back_tap_;

  // Constant-delay taps: every delayed read except the inflight window
  // uses a delay fixed at construction, and distinct delays are few. Each
  // step splits t − delay into two history rows and a fraction once per
  // distinct delay; a tap is "ok" when both rows are recorded rows of the
  // retained window (or both clamp to the newest), so a read is two loads
  // and a lerp.
  std::vector<double> tap_delay_;
  std::vector<double> tap_frac_;
  std::vector<std::size_t> tap_lo_;  // element offset of the older row
  std::vector<std::size_t> tap_hi_;
  std::vector<unsigned char> tap_ok_;

  // Fixed-horizon histories, time-major: the row of grid time k holds every
  // signal's sample (rate_i at 2i, rtt_i at 2i + 1, then arrival, queue and
  // loss of link l at link_sig_ + 3l + 0/1/2), hcap_ rows in a ring.
  std::vector<double> hist_;
  std::vector<double> sig_initial_;  // per-column pre-history value
  std::size_t hcap_ = 0;
  std::size_t n_sig_ = 0;
  std::size_t link_sig_ = 0;
  std::size_t head_row_ = 0;  // row of the next push

  // Cumulative sent volume ∫x_i; its lookback (one RTT including queueing)
  // varies, so it keeps per-agent histories.
  std::vector<ode::DelayHistory> sent_hist_;

  // Dynamic state and accounting.
  std::vector<double> queue_;  // q_ℓ(t)
  std::vector<double> sent_;
  std::vector<double> delivered_;
  std::vector<LinkAccounting> link_acct_;

  // Step scratch, sized once.
  std::vector<double> arrivals_, losses_, qdelay_, rates_;
  std::vector<AgentInputs> inputs_;

  Recording recording_;
  RttSeries rtt_;
  FluidTrace trace_;
  std::size_t step_count_ = 0;
  std::size_t steps_per_sample_ = 1;
};

}  // namespace bbrmodel::core
