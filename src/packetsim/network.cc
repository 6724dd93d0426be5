#include "packetsim/network.h"

#include <algorithm>

#include "common/require.h"
#include "common/stats.h"

namespace bbrmodel::packetsim {

namespace {

/// The AQM object guarding a buffer of `buffer_pkts` packets.
std::unique_ptr<Aqm> make_aqm(AqmKind kind, double buffer_pkts,
                              RedThresholds red) {
  const double min_th = red.min_pkts > 0.0
                            ? std::min(red.min_pkts, 0.9 * buffer_pkts)
                            : std::max(1.0, 0.10 * buffer_pkts);
  const double max_th = red.max_pkts > min_th
                            ? std::min(red.max_pkts, buffer_pkts)
                            : std::max(min_th + 1.0, 0.5 * buffer_pkts);
  switch (kind) {
    case AqmKind::kDropTail:
      return std::make_unique<DropTailAqm>(buffer_pkts);
    case AqmKind::kRed:
      // Classic thresholded RED, as a real tc-red deployment would be
      // configured (the paper's experiments use mininet/tc RED; the fluid
      // model's idealized p = q/B is intentionally different — §4.2).
      return std::make_unique<FloydRedAqm>(buffer_pkts, min_th, max_th, 0.1);
    case AqmKind::kRedEcn:
      // Faster queue average than the drop-based RED: marking must engage
      // before slow-start bursts overrun the physical buffer.
      return std::make_unique<FloydRedAqm>(buffer_pkts, min_th, max_th, 0.1,
                                           0.02, /*ecn=*/true);
  }
  return nullptr;
}

}  // namespace

PacketNet::PacketNet(std::uint64_t seed, double sample_interval_s)
    : rng_(seed),
      sample_interval_s_(sample_interval_s),
      next_tick_s_(sample_interval_s) {
  BBRM_REQUIRE_MSG(sample_interval_s > 0.0, "sample interval must be positive");
  trace_.sample_interval_s = sample_interval_s;
}

std::size_t PacketNet::add_link(double capacity_pps, double prop_delay_s,
                                double buffer_pkts, AqmKind aqm,
                                RedThresholds red) {
  BBRM_REQUIRE_MSG(!started_, "cannot add links after run()");
  BBRM_REQUIRE_MSG(buffer_pkts >= 1.0, "buffer must hold at least one packet");
  links_.push_back(std::make_unique<BottleneckLink>(
      events_, capacity_pps, prop_delay_s, make_aqm(aqm, buffer_pkts, red),
      rng_, [this](const Packet& pkt) { forward(pkt); }, buffer_pkts));
  return links_.size() - 1;
}

std::size_t PacketNet::add_flow(double access_delay_s,
                                std::vector<std::size_t> path,
                                std::unique_ptr<PacketCca> cca,
                                double start_time_s) {
  BBRM_REQUIRE_MSG(!started_, "cannot add flows after run()");
  BBRM_REQUIRE_MSG(!path.empty(), "a flow needs at least one link");
  std::vector<BottleneckLink*> hops;
  double path_prop = 0.0;
  for (const std::size_t l : path) {
    BBRM_REQUIRE_MSG(l < links_.size(), "path references unknown link");
    hops.push_back(links_[l].get());
    path_prop += links_[l]->prop_delay_s();
  }
  BottleneckLink* first = hops.front();
  flows_.push_back(std::make_unique<Flow>(
      events_, static_cast<int>(flows_.size()), access_delay_s,
      [first](const Packet& pkt) { first->offer(pkt); }, path_prop,
      std::move(cca), start_time_s));
  paths_.push_back(std::move(hops));
  return flows_.size() - 1;
}

void PacketNet::forward(const Packet& packet) {
  BBRM_ASSERT(packet.flow >= 0 &&
              static_cast<std::size_t>(packet.flow) < flows_.size());
  const auto flow = static_cast<std::size_t>(packet.flow);
  const auto& path = paths_[flow];
  const auto next = static_cast<std::size_t>(packet.hop) + 1;
  if (next == path.size()) {
    flows_[flow]->deliver_to_receiver(packet);
    return;
  }
  // Propagation already applied by the link; hand to the next hop now.
  Packet onward = packet;
  onward.hop = static_cast<int>(next);
  path[next]->offer(onward);
}

void PacketNet::run(double duration_s) {
  BBRM_REQUIRE_MSG(!flows_.empty(), "need at least one flow");
  BBRM_REQUIRE_MSG(duration_s > 0.0, "duration must be positive");
  if (!started_) {
    started_ = true;
    last_sent_.assign(flows_.size(), 0);
    for (auto& f : flows_) f->start();
  }
  duration_s_ += duration_s;
  // Schedule this call's sampling ticks up front (cheap, deterministic),
  // continuing the tick accumulator where the previous call left it.
  for (; next_tick_s_ <= duration_s_ + 1e-12;
       next_tick_s_ += sample_interval_s_) {
    events_.schedule_at(next_tick_s_, [this] { sample_row(); });
  }
  events_.run_until(duration_s_);
  for (auto& l : links_) l->flush_accounting();
}

void PacketNet::sample_row() {
  PacketSampleRow row;
  row.t = events_.now();
  row.flow_rate_pps.resize(flows_.size());
  row.flow_srtt_s.resize(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto s = flows_[i]->stats();
    row.flow_rate_pps[i] =
        static_cast<double>(s.data_sent - last_sent_[i]) / sample_interval_s_;
    last_sent_[i] = s.data_sent;
    row.flow_srtt_s[i] = s.srtt_s;
  }
  const BottleneckLink& bottleneck = *links_.front();
  row.queue_pkts = bottleneck.queue_pkts();
  const auto& ls = bottleneck.stats();
  const std::int64_t arrived = ls.arrived - last_arrived_;
  const std::int64_t dropped = ls.dropped - last_dropped_;
  row.loss_fraction =
      arrived > 0 ? static_cast<double>(dropped) / static_cast<double>(arrived)
                  : 0.0;
  last_arrived_ = ls.arrived;
  last_dropped_ = ls.dropped;
  trace_.rows.push_back(std::move(row));
}

const Flow& PacketNet::flow(std::size_t i) const {
  BBRM_REQUIRE(i < flows_.size());
  return *flows_[i];
}

const BottleneckLink& PacketNet::link(std::size_t l) const {
  BBRM_REQUIRE(l < links_.size());
  return *links_[l];
}

metrics::AggregateMetrics PacketNet::aggregate_metrics() const {
  BBRM_REQUIRE_MSG(duration_s_ > 0.0, "experiment has not run");
  metrics::AggregateMetrics out;

  out.mean_rate_pps.resize(flows_.size());
  RunningStats jitter;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const auto s = flows_[i]->stats();
    out.mean_rate_pps[i] =
        static_cast<double>(s.data_sent) / duration_s_;
    jitter.add(s.jitter_ms);
  }
  out.jain = jain_index(out.mean_rate_pps);
  out.jitter_ms = jitter.mean();

  const BottleneckLink& bottleneck = *links_.front();
  const auto& ls = bottleneck.stats();
  out.loss_pct = ls.arrived > 0 ? 100.0 * static_cast<double>(ls.dropped) /
                                      static_cast<double>(ls.arrived)
                                : 0.0;
  out.occupancy_pct = 100.0 * (ls.queue_time_pkts_s / duration_s_) /
                      bottleneck.buffer_pkts();
  out.utilization_pct = 100.0 * static_cast<double>(ls.served) /
                        (bottleneck.capacity_pps() * duration_s_);
  return out;
}

}  // namespace bbrmodel::packetsim
