// Network topology of the fluid engine. The packet simulator does not use
// it: packetsim::PacketNet builds its own links and paths, and models access
// links as delays.
//
// A network is a set of unidirectional links (capacity, buffer, one-way
// propagation delay, queuing discipline) plus one path per agent (an ordered
// list of link indices from the sender to the destination). Path RTT
// propagation delay is twice the one-way sum (symmetric, uncongested return
// path — matching the paper's dumbbell experiments, §4.1.3 and DESIGN.md
// §5.8).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/require.h"

namespace bbrmodel::net {

/// Queuing discipline of a link buffer (paper §2).
enum class Discipline {
  kDropTail,  // loss only when the buffer is full (Eq. 4)
  kRed,       // idealized RED: p = q / B (Eq. 6)
};

std::string to_string(Discipline d);

/// One unidirectional link.
struct Link {
  double capacity_pps = 0.0;   ///< C_ℓ, packets per second
  double buffer_pkts = 0.0;    ///< B_ℓ, packets
  double prop_delay_s = 0.0;   ///< d_ℓ, one-way propagation delay, seconds
  Discipline discipline = Discipline::kDropTail;
};

/// Per-agent precomputed delay structure (paper notation).
struct PathDelays {
  /// d^f_{i,ℓ}: one-way delay from the sender to each link on its path.
  std::vector<double> forward_to_link_s;
  /// d^b_{i,ℓ}: remaining round-trip delay from each link back to the sender.
  std::vector<double> backward_from_link_s;
  /// d^p_i = d_i: round-trip propagation delay of the path.
  double rtt_prop_s = 0.0;
};

/// A multi-link network with one path per agent.
class Topology {
 public:
  /// Add a link; returns its index.
  std::size_t add_link(const Link& link);

  /// Add an agent using the given ordered list of link indices; returns the
  /// agent index.
  std::size_t add_path(std::vector<std::size_t> links);

  std::size_t num_links() const { return links_.size(); }
  std::size_t num_agents() const { return paths_.size(); }

  const Link& link(std::size_t l) const;
  Link& mutable_link(std::size_t l);
  const std::vector<std::size_t>& path(std::size_t agent) const;

  /// Agents whose path traverses link l (U_ℓ in the paper).
  std::vector<std::size_t> agents_on_link(std::size_t l) const;

  /// Delay structure for one agent (computed from link propagation delays).
  PathDelays path_delays(std::size_t agent) const;

  /// The index of the minimum-capacity link on the agent's path (its
  /// bottleneck ℓ_i; ties broken towards the later link).
  std::size_t bottleneck_of(std::size_t agent) const;

  /// Largest round-trip propagation delay over all agents (history horizon).
  double max_rtt_prop_s() const;

 private:
  std::vector<Link> links_;
  std::vector<std::vector<std::size_t>> paths_;
};

/// Parameters of the paper's dumbbell topology (Fig. 3): N senders with
/// heterogeneous access-link delays, one shared bottleneck.
struct DumbbellSpec {
  std::size_t num_senders = 1;
  double bottleneck_capacity_pps = 0.0;  ///< C_ℓ of the shared link
  double bottleneck_delay_s = 0.0;       ///< d_ℓ (one-way)
  /// One-way access delay per sender (size must equal num_senders).
  std::vector<double> access_delays_s;
  /// Bottleneck buffer in multiples of the bottleneck BDP, where
  /// BDP = C·(2·(bottleneck delay + mean access delay)).
  double buffer_bdp = 1.0;
  Discipline discipline = Discipline::kDropTail;
  /// Access links get this multiple of bottleneck capacity (never saturated)
  /// and effectively infinite buffers.
  double access_capacity_factor = 40.0;
};

/// Result of building a dumbbell: the topology plus the bottleneck link id.
struct Dumbbell {
  Topology topology;
  std::size_t bottleneck_link = 0;
  double bottleneck_bdp_pkts = 0.0;  ///< BDP used to size the buffer
};

/// Build the dumbbell of Fig. 3. Access links are modelled as high-capacity,
/// deep-buffer links so they never constrain the flow (paper: "never
/// saturated and therefore do not affect the sending rates").
Dumbbell make_dumbbell(const DumbbellSpec& spec);

/// Evenly spread access delays so that total RTTs fall in
/// [min_rtt_s, max_rtt_s] given the bottleneck one-way delay:
/// access_i = (rtt_i / 2) − bottleneck_delay with rtt_i linearly spaced.
std::vector<double> spread_access_delays(std::size_t n, double min_rtt_s,
                                         double max_rtt_s,
                                         double bottleneck_delay_s);

/// Parameters of a parking-lot topology (the paper's §8 future-work
/// scenario): a chain of `num_hops` equal bottleneck links. One "long" flow
/// traverses the whole chain; `cross_flows_per_hop` flows enter at each hop
/// and traverse exactly one bottleneck link.
struct ParkingLotSpec {
  std::size_t num_hops = 2;
  std::size_t cross_flows_per_hop = 1;
  double hop_capacity_pps = 0.0;
  double hop_delay_s = 0.005;        ///< one-way delay per hop
  double access_delay_s = 0.005;     ///< one-way delay of every access link
  /// Optional per-cross-flow access delays (asymmetric-RTT workloads),
  /// ordered hop-major; when non-empty it must hold
  /// num_hops × cross_flows_per_hop entries and overrides access_delay_s
  /// for the cross flows (the long flow keeps access_delay_s).
  std::vector<double> cross_access_delays_s;
  double buffer_bdp = 1.0;           ///< per-hop buffer in hop-BDP of the
                                     ///< long flow's round trip
  Discipline discipline = Discipline::kDropTail;
  double access_capacity_factor = 40.0;
};

/// Result of building a parking lot. Agent 0 is the long flow; agents
/// 1 + h·cross_flows_per_hop … are the cross flows of hop h.
struct ParkingLot {
  Topology topology;
  std::vector<std::size_t> hop_links;  ///< the chain's bottleneck links
  std::size_t long_flow = 0;
  double hop_buffer_pkts = 0.0;
};

/// Build the parking-lot chain.
ParkingLot make_parking_lot(const ParkingLotSpec& spec);

}  // namespace bbrmodel::net
