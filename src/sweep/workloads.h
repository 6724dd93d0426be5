// Named library workloads beyond the dumbbell, plus the runner registry.
//
// A workload is just a named, cacheable Runner whose experiment is a pure
// function of (spec, backend) — which is exactly what the orchestrator
// needs: an execution plan records the runner by *name*, any worker
// process on any machine resolves that name through runner_by_name(), and
// content-addressed caching and byte-reproducibility follow from the
// Runner contract.
//
// The first non-dumbbell workload is the paper-§8 parking lot (one long
// flow traversing every hop, one cross flow per hop), promoted here from
// bench/multi_bottleneck.cc so that `bbrsweep --workload parking-lot` and
// distributed queue workers can run it, with a cross-flow CCA-mix axis:
// the task's mix assigns flow 0 to the long flow and flow 1+h to the
// cross flow of hop h, so cyclic mixes ("bbrv1/cubic/reno") paint the
// hops in repeating CCA patterns and leader mixes ("reno+cubic") model a
// long flow against uniform cross traffic.
#pragma once

#include <string>
#include <vector>

#include "sweep/runner.h"

namespace bbrmodel::sweep {

/// One-way propagation delay of every parking-lot hop, in seconds.
inline constexpr double kParkingLotHopDelay = 0.005;

/// Default one-way access delay of the long flow and of cross flows whose
/// spec carries no explicit per-flow RTT, in seconds.
inline constexpr double kParkingLotAccessDelay = 0.005;

/// The parking-lot workload: mix.flows.size() = 1 + hops; flow 0 is the
/// long flow traversing every hop, flow 1+h is the single cross flow of
/// hop h. Per-flow total RTTs (spec.flow_rtts_s, entries 1..hops)
/// translate into cross-flow access delays — the long flow always keeps
/// the fixed default delay, so asymmetric RTT axes vary the cross
/// traffic, not the subject. Runs on the fluid or packet backend;
/// jain is over every flow's mean rate, loss/occupancy/utilization/jitter
/// are NaN (the chain has no single bottleneck for them), and
/// aux = {long-flow rate / mean cross rate}. Named ("parking-lot"), so
/// cells cache and plans can reference it.
Runner parking_lot_runner();

/// Resolve a runner by the name an execution plan (or cache cell) records:
/// fluid, packet, reduced, backend, parking-lot. Throws PreconditionError
/// naming the valid choices — a queue worker must fail loudly rather than
/// guess at a plan written by a newer binary.
Runner runner_by_name(const std::string& name);

/// The names runner_by_name accepts, for error messages and --help text.
std::vector<std::string> runner_names();

}  // namespace bbrmodel::sweep
