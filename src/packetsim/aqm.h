// Active queue management for the packet-level bottleneck.
//
// Two disciplines:
//  * DropTailAqm — drop when the buffer is full (the fluid model's Eq. 4
//    counterpart).
//  * FloydRedAqm — classic RED (Floyd & Jacobson '93) with min/max
//    thresholds and gentle mode over the EWMA-averaged queue, as a tc-red
//    deployment runs it: the experiment counterpart of the paper's
//    idealized RED (Eq. 6), including the averaging lag the paper names as
//    a model-vs-experiment difference ("real RED relies on outdated and
//    averaged measurements of the queue size", §4.2).
#pragma once

#include "common/rng.h"

namespace bbrmodel::packetsim {

/// Decides acceptance of an arriving packet given the instantaneous queue.
class Aqm {
 public:
  virtual ~Aqm() = default;

  /// True if the arriving packet must be dropped. `queue_pkts` is the
  /// backlog *before* admitting the packet; `now` allows time-dependent
  /// averaging.
  virtual bool should_drop(double now, double queue_pkts, Rng& rng) = 0;

  /// ECN extension (paper §3.1 mentions BBRv2's ECN sensitivity): if true,
  /// the link converts probabilistic "drops" into CE marks whenever the
  /// buffer physically has room (RFC 3168 marking semantics).
  virtual bool ecn_capable() const { return false; }
};

/// Drop-tail: drop iff the buffer is full.
class DropTailAqm : public Aqm {
 public:
  explicit DropTailAqm(double buffer_pkts);
  bool should_drop(double now, double queue_pkts, Rng& rng) override;

 private:
  double buffer_pkts_;
};

/// Classic RED: no drops below min_th, probabilistic up to max_p at max_th,
/// linear ramp to 1 between max_th and 2·max_th ("gentle" mode).
/// With `ecn` enabled, probabilistic drops become CE marks (RFC 3168).
class FloydRedAqm : public Aqm {
 public:
  FloydRedAqm(double buffer_pkts, double min_th_pkts, double max_th_pkts,
              double max_p = 0.1, double ewma_weight = 0.002,
              bool ecn = false);
  bool should_drop(double now, double queue_pkts, Rng& rng) override;
  bool ecn_capable() const override { return ecn_; }

 private:
  double buffer_pkts_;
  double min_th_;
  double max_th_;
  double max_p_;
  double weight_;
  bool ecn_;
  double avg_ = 0.0;
};

}  // namespace bbrmodel::packetsim
