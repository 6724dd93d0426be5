#include "core/engine.h"

#include <algorithm>
#include <cmath>

#include "common/deadline.h"
#include "common/require.h"

namespace bbrmodel::core {

namespace {

// Steps between deadline polls: about 1 ms of a paper-grid cell's wall
// time, so a timed-out run stops within a millisecond or so of its budget.
constexpr std::size_t kDeadlinePollSteps = 1024;

}  // namespace

FluidSimulation::FluidSimulation(net::Topology topology,
                                 std::vector<std::unique_ptr<FluidCca>> agents,
                                 FluidConfig config, Recording recording)
    : topology_(std::move(topology)),
      agents_(std::move(agents)),
      config_(config),
      recording_(recording) {
  BBRM_REQUIRE_MSG(agents_.size() == topology_.num_agents(),
                   "one CCA per topology path required");
  BBRM_REQUIRE_MSG(config_.step_s > 0.0, "step must be positive");
  for (const auto& a : agents_) BBRM_REQUIRE_MSG(a != nullptr, "null CCA");

  const std::size_t n_agents = agents_.size();
  const std::size_t n_links = topology_.num_links();

  loss_params_.rate_sharpness = config_.k_rate;
  loss_params_.fullness_exponent = config_.droptail_exponent;
  for (std::size_t l = 0; l < n_links; ++l) {
    links_.push_back(topology_.link(l));
  }

  // History horizon: the largest propagation RTT plus margin. Queueing delay
  // never appears inside a delay argument in the model (§2: "we neglect
  // queuing delay ... previous to link ℓ"), so propagation bounds suffice.
  const double horizon = std::max(1e-3, 1.25 * topology_.max_rtt_prop_s());

  contexts_.resize(n_agents);
  path_off_.push_back(0);
  for (std::size_t i = 0; i < n_agents; ++i) {
    const std::size_t lb = topology_.bottleneck_of(i);
    AgentContext& ctx = contexts_[i];
    ctx.id = i;
    ctx.num_agents = n_agents;
    ctx.delays = topology_.path_delays(i);
    ctx.bottleneck_capacity_pps = links_[lb].capacity_pps;
    ctx.config = &config_;
    agents_[i]->init(ctx);

    const auto& path = topology_.path(i);
    std::size_t lb_pos = 0;
    for (std::size_t k = 0; k < path.size(); ++k) {
      path_links_.push_back(static_cast<std::uint32_t>(path[k]));
      fwd_tap_.push_back(tap_of(ctx.delays.forward_to_link_s[k]));
      bwd_tap_.push_back(tap_of(ctx.delays.backward_from_link_s[k]));
      if (path[k] == lb) lb_pos = k;
    }
    path_off_.push_back(static_cast<std::uint32_t>(path_links_.size()));
    bottleneck_.push_back(static_cast<std::uint32_t>(lb));
    rtt_tap_.push_back(tap_of(ctx.delays.rtt_prop_s));
    back_tap_.push_back(tap_of(ctx.delays.backward_from_link_s[lb_pos]));

    // The inflight window looks back one RTT including queuing delay; size
    // generously (queuing delay ≤ B/C of each traversed link).
    double q_horizon = horizon;
    for (std::size_t l : path) {
      q_horizon += links_[l].buffer_pkts / links_[l].capacity_pps;
    }
    sent_hist_.emplace_back(config_.step_s, q_horizon, 0.0);
  }
  const std::size_t n_taps = tap_delay_.size();
  tap_frac_.resize(n_taps);
  tap_lo_.resize(n_taps);
  tap_hi_.resize(n_taps);
  tap_ok_.resize(n_taps);

  // Flows start at t = 0: zero rate pre-history; RTT pre-history is the
  // uncongested path RTT. Every row starts as the pre-history.
  hcap_ = ode::history_capacity(config_.step_s, horizon);
  link_sig_ = 2 * n_agents;
  n_sig_ = link_sig_ + 3 * n_links;
  sig_initial_.assign(n_sig_, 0.0);
  for (std::size_t i = 0; i < n_agents; ++i) {
    sig_initial_[2 * i + 1] = contexts_[i].delays.rtt_prop_s;
  }
  hist_.reserve(hcap_ * n_sig_);
  for (std::size_t r = 0; r < hcap_; ++r) {
    hist_.insert(hist_.end(), sig_initial_.begin(), sig_initial_.end());
  }

  queue_.assign(n_links, 0.0);
  link_acct_.assign(n_links, {});
  sent_.assign(n_agents, 0.0);
  delivered_.assign(n_agents, 0.0);
  arrivals_.resize(n_links);
  losses_.resize(n_links);
  qdelay_.resize(n_links);
  rates_.resize(n_agents);
  inputs_.resize(n_agents);

  steps_per_sample_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::round(config_.record_interval_s /
                                             config_.step_s)));
  trace_.sample_interval_s =
      static_cast<double>(steps_per_sample_) * config_.step_s;
  rtt_.sample_interval_s = trace_.sample_interval_s;
  rtt_.num_agents = n_agents;
}

std::uint32_t FluidSimulation::tap_of(double delay) {
  const auto it = std::find(tap_delay_.begin(), tap_delay_.end(), delay);
  if (it != tap_delay_.end()) {
    return static_cast<std::uint32_t>(it - tap_delay_.begin());
  }
  tap_delay_.push_back(delay);
  return static_cast<std::uint32_t>(tap_delay_.size() - 1);
}

void FluidSimulation::run(double duration) {
  BBRM_REQUIRE_MSG(duration >= 0.0, "duration must be non-negative");
  const auto steps =
      static_cast<std::size_t>(std::llround(duration / config_.step_s));
  const std::size_t samples = steps / steps_per_sample_ + 1;
  rtt_.rtt_s.reserve(rtt_.rtt_s.size() + samples * agents_.size());
  if (recording_ == Recording::kFullTrace) {
    trace_.samples.reserve(trace_.samples.size() + samples);
  }
  for (std::size_t s = 0; s < steps; ++s) {
    if (s % kDeadlinePollSteps == 0) poll_deadline();
    step();
  }
}

// The split interpolate_at makes of t − delay, once per distinct delay. A
// tap is ok (served from the matrix) when something was recorded, t − delay
// ≥ 0 and the older sample is at most hcap_ rows back: lag ≥ 2 puts both
// samples on rows inside the window, and lag ≤ 1 (a read at or past the
// newest sample, as on every path's first link) clamps both to the newest
// row, just as interpolate_at does. So only start-up reads (t < delay) and
// reads past the window take the slow path. The arrays are read through
// local pointers because the stores through them could alias the members.
void FluidSimulation::compute_taps(double t) {
  const double h = config_.step_s;
  const auto total = static_cast<long long>(step_count_);
  const std::size_t rows = hcap_;
  const auto hcap = static_cast<long long>(rows);
  const auto head = static_cast<long long>(head_row_);
  const std::size_t n_sig = n_sig_;
  const std::size_t newest = (head_row_ == 0 ? rows : head_row_) - 1;
  const std::size_t n_taps = tap_delay_.size();
  const double* delay = tap_delay_.data();
  double* frac = tap_frac_.data();
  std::size_t* lo = tap_lo_.data();
  std::size_t* hi = tap_hi_.data();
  unsigned char* ok = tap_ok_.data();
  for (std::size_t j = 0; j < n_taps; ++j) {
    const double td = t - delay[j];
    const double pos = td / h;
    // Where td ≥ 0, the only case in which a tap is ok, floor is truncation.
    const auto k = static_cast<long long>(pos);
    frac[j] = pos - static_cast<double>(k);
    const long long lag = total - k;
    const bool served = total > 0 && !(td < 0.0) && lag <= hcap;
    ok[j] = served;
    if (!served) continue;
    if (lag <= 1) {
      lo[j] = hi[j] = newest * n_sig;
      continue;
    }
    long long row = head - lag;
    if (row < 0) row += hcap;
    const auto r = static_cast<std::size_t>(row);
    lo[j] = r * n_sig;
    hi[j] = (r + 1 == rows ? 0 : r + 1) * n_sig;
  }
}

// History column `sig` at t − tap_delay_[tap], bit for bit what
// interpolate_at returns for it.
inline double FluidSimulation::read(std::uint32_t sig, std::uint32_t tap,
                                    double t) const {
  if (tap_ok_[tap]) {
    const double a = hist_[tap_lo_[tap] + sig];
    const double b = hist_[tap_hi_[tap] + sig];
    return a + (b - a) * tap_frac_[tap];
  }
  return ode::interpolate_at(
      t - tap_delay_[tap], config_.step_s, step_count_, hcap_,
      sig_initial_[sig], [&](std::size_t lag) {
        const std::size_t row =
            head_row_ > lag ? head_row_ - 1 - lag : head_row_ + hcap_ - 1 - lag;
        return hist_[row * n_sig_ + sig];
      });
}

void FluidSimulation::step() {
  const double t = now();
  const double h = config_.step_s;
  const std::size_t n_agents = agents_.size();
  const std::size_t n_links = links_.size();
  const auto rate_sig = [](std::size_t i) {
    return static_cast<std::uint32_t>(2 * i);
  };
  const auto link_sig = [this](std::size_t l, std::size_t field) {
    return static_cast<std::uint32_t>(link_sig_ + 3 * l + field);
  };
  compute_taps(t);

  // (1) Link arrival rates y_ℓ(t) from delayed sending rates (Eq. 1).
  std::fill(arrivals_.begin(), arrivals_.end(), 0.0);
  for (std::size_t i = 0; i < n_agents; ++i) {
    for (std::uint32_t k = path_off_[i]; k < path_off_[i + 1]; ++k) {
      arrivals_[path_links_[k]] += read(rate_sig(i), fwd_tap_[k], t);
    }
  }

  // (2) Loss probabilities p_ℓ(t) under the configured discipline (Eqs. 4–6),
  // and each link's queueing delay q_ℓ/C_ℓ for the path RTTs below.
  for (std::size_t l = 0; l < n_links; ++l) {
    losses_[l] = net::link_loss(links_[l], arrivals_[l], queue_[l],
                                loss_params_);
    qdelay_[l] = queue_[l] / links_[l].capacity_pps;
  }

  // (3) Per-agent inputs and rates.
  for (std::size_t i = 0; i < n_agents; ++i) {
    const double rtt_prop = contexts_[i].delays.rtt_prop_s;
    AgentInputs& in = inputs_[i];
    in.t = t;

    // Path RTT (Eq. 3): propagation both ways + forward queuing delay.
    double queueing = 0.0;
    for (std::uint32_t k = path_off_[i]; k < path_off_[i + 1]; ++k) {
      queueing += qdelay_[path_links_[k]];
    }
    in.rtt = rtt_prop + queueing;
    in.rtt_delayed = read(rate_sig(i) + 1, rtt_tap_[i], t);

    // Delivery rate (Eq. 17) at the agent's bottleneck link.
    const std::uint32_t lb = bottleneck_[i];
    const double x_del = read(rate_sig(i), rtt_tap_[i], t);
    const double y_del = read(link_sig(lb, 0), back_tap_[i], t);
    const double q_del = read(link_sig(lb, 1), back_tap_[i], t);
    const double cap = links_[lb].capacity_pps;
    if (q_del > 1e-9 && y_del > 1e-12) {
      in.delivery_rate = x_del / y_del * cap;
    } else {
      in.delivery_rate = x_del;
    }

    // Path loss delayed by one RTT (Eqs. 7, 39): Σ p_ℓ(t − d^b_{i,ℓ}).
    double loss = 0.0;
    for (std::uint32_t k = path_off_[i]; k < path_off_[i + 1]; ++k) {
      loss += read(link_sig(path_links_[k], 2), bwd_tap_[k], t);
    }
    in.loss_delayed = std::min(1.0, loss);
    in.rate_delayed = x_del;

    // Trailing-RTT send integral (DESIGN.md §5.12): volume sent during the
    // last round trip — a drift-free stand-in for the inflight volume.
    in.inflight_window_pkts =
        std::max(0.0, sent_[i] - sent_hist_[i].at(t - in.rtt));

    const double cap_rate =
        config_.max_rate_factor * contexts_[i].bottleneck_capacity_pps;
    rates_[i] = std::clamp(agents_[i]->sending_rate(in), 0.0, cap_rate);
  }

  // Record before state advances (sample reflects time t).
  if (step_count_ % steps_per_sample_ == 0) record_sample(t);

  // (4) Advance agent states and histories; every fixed-horizon signal's
  // time-t value lands in the matrix row of grid time t.
  double* row = hist_.data() + head_row_ * n_sig_;
  for (std::size_t i = 0; i < n_agents; ++i) {
    agents_[i]->advance(inputs_[i], rates_[i], h);
    row[rate_sig(i)] = rates_[i];
    row[rate_sig(i) + 1] = inputs_[i].rtt;
    sent_hist_[i].push(sent_[i]);  // cumulative volume as of time t
    sent_[i] += h * rates_[i];
    delivered_[i] += h * inputs_[i].delivery_rate;
  }

  // (5) Advance queues (Eq. 2) and link accounting.
  for (std::size_t l = 0; l < n_links; ++l) {
    const net::Link& link = links_[l];
    LinkAccounting& acct = link_acct_[l];
    acct.arrived_pkts += h * arrivals_[l];
    acct.lost_pkts += h * losses_[l] * arrivals_[l];
    acct.served_pkts += h * net::service_rate(arrivals_[l], link.capacity_pps,
                                              losses_[l], queue_[l]);
    acct.queue_time_pkts_s += h * queue_[l];

    row[link_sig(l, 0)] = arrivals_[l];
    row[link_sig(l, 1)] = queue_[l];
    row[link_sig(l, 2)] = losses_[l];

    queue_[l] = net::step_queue(queue_[l], arrivals_[l], link.capacity_pps,
                                losses_[l], link.buffer_pkts, h);
  }

  if (++head_row_ == hcap_) head_row_ = 0;
  ++step_count_;
}

void FluidSimulation::record_sample(double t) {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    rtt_.rtt_s.push_back(inputs_[i].rtt);
  }
  if (recording_ != Recording::kFullTrace) return;
  FluidSample& sample = trace_.samples.emplace_back();
  sample.t = t;
  sample.agents.resize(agents_.size());
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    AgentSample& a = sample.agents[i];
    a.rate_pps = rates_[i];
    a.delivery_rate_pps = inputs_[i].delivery_rate;
    a.rtt_s = inputs_[i].rtt;
    a.cca = agents_[i]->telemetry();
  }
  sample.links.resize(links_.size());
  for (std::size_t l = 0; l < links_.size(); ++l) {
    LinkSample& ls = sample.links[l];
    ls.queue_pkts = queue_[l];
    ls.loss_prob = losses_[l];
    ls.arrival_pps = arrivals_[l];
  }
}

double FluidSimulation::queue_pkts(std::size_t link) const {
  BBRM_REQUIRE(link < queue_.size());
  return queue_[link];
}

double FluidSimulation::sent_pkts(std::size_t agent) const {
  BBRM_REQUIRE(agent < sent_.size());
  return sent_[agent];
}

double FluidSimulation::delivered_pkts(std::size_t agent) const {
  BBRM_REQUIRE(agent < delivered_.size());
  return delivered_[agent];
}

const LinkAccounting& FluidSimulation::link_accounting(std::size_t link) const {
  BBRM_REQUIRE(link < link_acct_.size());
  return link_acct_[link];
}

const FluidTrace& FluidSimulation::trace() const {
  BBRM_REQUIRE_MSG(recording_ == Recording::kFullTrace,
                   "trace() needs Recording::kFullTrace");
  return trace_;
}

const FluidCca& FluidSimulation::cca(std::size_t agent) const {
  BBRM_REQUIRE(agent < agents_.size());
  return *agents_[agent];
}

}  // namespace bbrmodel::core
