// Host-speed calibration of the benchmark's time metrics.
//
// The benchmark runs on shared machines whose per-thread speed drifts by
// ±20% over minutes as other tenants load the cores and caches. The drift
// slows every part of the library alike, so runs of the same code a few
// minutes apart differ by more than the benchmark's bounds. A fixed kernel,
// compiled from this directory and not from the library, is therefore timed
// on the workload's thread count before the first pass and after every
// pass, and each pass's times are scaled by kReferenceProbeS over the mean
// of the two probes around it. No change to the library can move the
// kernel, so every such change shows in the scaled figures in full.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// The kernel's per-thread CPU seconds on the host the benchmark was tuned
/// on (a 4-vCPU Xeon, GCC 12.2, Release). Scaled figures read as if they
/// were measured there at that speed.
constexpr double kReferenceProbeS = 0.2;

/// Run the kernel on `threads` threads at once and return each thread's
/// CPU seconds. CPU time rather than wall time, so that threads the
/// scheduler has not yet spread over the cores do not read as a slow host.
std::vector<double> host_probe(std::size_t threads);

}  // namespace perfbench
