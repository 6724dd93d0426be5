// The packet-level dumbbell experiment (the paper's mininet substitute).
//
// N senders with heterogeneous access delays share one bottleneck
// (capacity, one-way propagation delay, AQM buffer). Produces the same
// aggregate metrics as the fluid side (metrics::AggregateMetrics) and a
// sampled trace for the "Experiment" columns of the trace figures.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "metrics/aggregate.h"
#include "packetsim/event_queue.h"
#include "packetsim/flow.h"
#include "packetsim/link.h"

namespace bbrmodel::packetsim {

/// Which AQM guards the bottleneck buffer.
enum class AqmKind {
  kDropTail,
  kRed,       ///< classic thresholded RED (experiment counterpart of Eq. 6)
  kFloydRed,  ///< classic min/max-threshold RED (extension)
  kRedEcn,    ///< RED with CE marking instead of drops (extension, RFC 3168)
};

/// One trace row of the packet experiment.
struct PacketSampleRow {
  double t = 0.0;
  std::vector<double> flow_rate_pps;   ///< sends per flow over the interval
  std::vector<double> flow_srtt_s;     ///< smoothed RTT per flow
  double queue_pkts = 0.0;             ///< instantaneous bottleneck backlog
  double loss_fraction = 0.0;          ///< drops/arrivals over the interval
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

/// The assembled dumbbell experiment.
class DumbbellNet {
 public:
  /// @param buffer_pkts bottleneck buffer (B); AQM built accordingly.
  DumbbellNet(double capacity_pps, double bottleneck_delay_s,
              double buffer_pkts, AqmKind aqm, std::uint64_t seed = 42,
              double sample_interval_s = 0.01, RedThresholds red = {});

  /// Add one flow; returns its index. Call before run().
  std::size_t add_flow(double access_delay_s,
                       std::unique_ptr<PacketCca> cca,
                       double start_time_s = 0.0);

  /// Run the experiment for `duration_s` more seconds; the trace keeps
  /// sampling across calls.
  void run(double duration_s);

  std::size_t num_flows() const { return flows_.size(); }
  const Flow& flow(std::size_t i) const;
  const BottleneckLink& bottleneck() const { return *link_; }
  const PacketTrace& trace() const { return trace_; }
  double duration_s() const { return duration_s_; }
  EventQueue& events() { return events_; }

  /// The same five aggregate metrics as the fluid model reports.
  metrics::AggregateMetrics aggregate_metrics() const;

 private:
  void sample_row();

  EventQueue events_;
  Rng rng_;
  double buffer_pkts_;
  double sample_interval_s_;
  std::unique_ptr<BottleneckLink> link_;
  std::vector<std::unique_ptr<Flow>> flows_;
  PacketTrace trace_;
  double duration_s_ = 0.0;
  bool started_ = false;
  double next_tick_s_;  ///< first sampling tick not yet scheduled

  // Interval accounting for the trace.
  std::vector<std::int64_t> last_sent_;
  std::int64_t last_arrived_ = 0;
  std::int64_t last_dropped_ = 0;
};

/// Build the AQM object for a buffer.
std::unique_ptr<Aqm> make_aqm(AqmKind kind, double buffer_pkts,
                              RedThresholds red = {});

std::string to_string(AqmKind kind);

}  // namespace bbrmodel::packetsim
