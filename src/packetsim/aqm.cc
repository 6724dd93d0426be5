#include "packetsim/aqm.h"

#include <algorithm>

#include "common/require.h"

namespace bbrmodel::packetsim {

DropTailAqm::DropTailAqm(double buffer_pkts) : buffer_pkts_(buffer_pkts) {
  BBRM_REQUIRE_MSG(buffer_pkts >= 1.0, "buffer must hold at least one packet");
}

bool DropTailAqm::should_drop(double /*now*/, double queue_pkts, Rng& /*rng*/) {
  return queue_pkts + 1.0 > buffer_pkts_ + 1e-9;
}

FloydRedAqm::FloydRedAqm(double buffer_pkts, double min_th_pkts,
                         double max_th_pkts, double max_p, double ewma_weight,
                         bool ecn)
    : buffer_pkts_(buffer_pkts),
      min_th_(min_th_pkts),
      max_th_(max_th_pkts),
      max_p_(max_p),
      weight_(ewma_weight),
      ecn_(ecn) {
  BBRM_REQUIRE_MSG(buffer_pkts >= 1.0, "buffer must hold at least one packet");
  BBRM_REQUIRE_MSG(min_th_pkts >= 0.0 && max_th_pkts > min_th_pkts,
                   "thresholds must satisfy 0 <= min_th < max_th");
  BBRM_REQUIRE_MSG(max_p > 0.0 && max_p <= 1.0, "max_p must be in (0, 1]");
}

bool FloydRedAqm::should_drop(double /*now*/, double queue_pkts, Rng& rng) {
  avg_ = (1.0 - weight_) * avg_ + weight_ * queue_pkts;
  if (queue_pkts + 1.0 > buffer_pkts_ + 1e-9) return true;
  if (avg_ < min_th_) return false;
  double p;
  if (avg_ <= max_th_) {
    p = max_p_ * (avg_ - min_th_) / (max_th_ - min_th_);
  } else {
    // Gentle mode: ramp from max_p at max_th to 1 at 2·max_th.
    p = max_p_ + (1.0 - max_p_) *
                     std::clamp((avg_ - max_th_) / max_th_, 0.0, 1.0);
  }
  return rng.chance(std::clamp(p, 0.0, 1.0));
}

}  // namespace bbrmodel::packetsim
