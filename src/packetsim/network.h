// The packet-level network experiment (the paper's mininet substitute).
//
// Bottleneck links (capacity, one-way propagation delay, AQM buffer) and
// flows with heterogeneous access delays, each routed over an ordered path
// of links. Data traverses the links of its path in order; ACKs return over
// an uncongested fixed-delay path. The paper's dumbbell (§4) is a one-link
// net, the §8 parking lot a chain of links. Produces the same aggregate
// metrics as the fluid side (metrics::AggregateMetrics) and a sampled trace
// for the "Experiment" columns of the trace figures.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "metrics/aggregate.h"
#include "packetsim/event_queue.h"
#include "packetsim/flow.h"
#include "packetsim/link.h"

namespace bbrmodel::packetsim {

/// Which AQM guards a link's buffer.
enum class AqmKind {
  kDropTail,
  kRed,     ///< classic thresholded RED (experiment counterpart of Eq. 6)
  kRedEcn,  ///< RED with CE marking instead of drops (extension, RFC 3168)
};

/// One trace row of the packet experiment.
struct PacketSampleRow {
  double t = 0.0;
  std::vector<double> flow_rate_pps;   ///< sends per flow over the interval
  std::vector<double> flow_srtt_s;     ///< smoothed RTT per flow
  double queue_pkts = 0.0;             ///< instantaneous link-0 backlog
  double loss_fraction = 0.0;          ///< link-0 drops/arrivals, interval
};

/// Recorded packet-experiment trace.
struct PacketTrace {
  double sample_interval_s = 0.0;
  std::vector<PacketSampleRow> rows;
};

/// RED threshold configuration (packets). Defaults derive from the buffer;
/// the paper-style experiments pass BDP-derived values so that the RED
/// operating point does not scale with the buffer (as a fixed tc-red
/// deployment behaves).
struct RedThresholds {
  double min_pkts = -1.0;  ///< negative: 10 % of the buffer
  double max_pkts = -1.0;  ///< negative: 50 % of the buffer
};

/// The assembled experiment: links, and flows routed over them.
class PacketNet {
 public:
  /// @param seed              AQM randomness shared by every link.
  /// @param sample_interval_s spacing of the trace rows.
  explicit PacketNet(std::uint64_t seed, double sample_interval_s = 0.01);

  /// Add a bottleneck link of `buffer_pkts` (>= 1) packets guarded by
  /// `aqm`; returns its index. Call before run().
  std::size_t add_link(double capacity_pps, double prop_delay_s,
                       double buffer_pkts, AqmKind aqm,
                       RedThresholds red = {});

  /// Add a flow traversing `path` (ordered link indices) after a one-way
  /// access delay; returns its index. Call before run().
  std::size_t add_flow(double access_delay_s, std::vector<std::size_t> path,
                       std::unique_ptr<PacketCca> cca,
                       double start_time_s = 0.0);

  /// Run the experiment for `duration_s` more seconds; the trace keeps
  /// sampling across calls.
  void run(double duration_s);

  std::size_t num_flows() const { return flows_.size(); }
  const Flow& flow(std::size_t i) const;
  const BottleneckLink& link(std::size_t l) const;
  /// Sampled per-flow rates and RTTs, with link 0's queue and loss.
  const PacketTrace& trace() const { return trace_; }
  double duration_s() const { return duration_s_; }
  EventQueue& events() { return events_; }

  /// The same five aggregate metrics as the fluid model reports: Jain,
  /// jitter and the per-flow rates over every flow; loss, occupancy and
  /// utilization of link 0 (the dumbbell's bottleneck).
  metrics::AggregateMetrics aggregate_metrics() const;

 private:
  /// The one delivery hook of every link: on to the next link of the
  /// packet's path, or to its receiver after the last one.
  void forward(const Packet& packet);
  void sample_row();

  EventQueue events_;
  Rng rng_;
  double sample_interval_s_;
  std::vector<std::unique_ptr<BottleneckLink>> links_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::vector<std::vector<BottleneckLink*>> paths_;  ///< one per flow
  PacketTrace trace_;
  double duration_s_ = 0.0;
  bool started_ = false;
  double next_tick_s_;  ///< first sampling tick not yet scheduled

  // Interval accounting for the trace.
  std::vector<std::int64_t> last_sent_;
  std::int64_t last_arrived_ = 0;
  std::int64_t last_dropped_ = 0;
};

}  // namespace bbrmodel::packetsim
