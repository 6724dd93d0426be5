#include "ode/history.h"

#include "common/require.h"

namespace bbrmodel::ode {

std::size_t history_capacity(double step, double horizon) {
  BBRM_REQUIRE_MSG(step > 0.0, "history step must be positive");
  BBRM_REQUIRE_MSG(horizon >= 0.0, "history horizon must be non-negative");
  return static_cast<std::size_t>(std::ceil(horizon / step)) + 2;
}

DelayHistory::DelayHistory(double step, double horizon, double initial)
    : step_(step),
      initial_(initial),
      ring_(history_capacity(step, horizon), initial) {}

}  // namespace bbrmodel::ode
