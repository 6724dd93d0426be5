// Elastic worker fleets: spawn and monitor `bbrsweep worker` processes —
// locally or over ssh — against one shared queue directory.
//
// A fleet is N worker *slots*. Each slot holds one worker process
// (round-robined across the ssh hosts when given); the monitor loop reaps
// exits and keeps every slot filled until the queue's plan is complete.
// That is the whole elasticity story: a worker that crashes, is OOM-killed,
// or exits early under --max-cells is simply respawned while cells remain,
// and the queue's lease recovery re-enqueues whatever it was holding — the
// fleet never tracks per-cell state itself. Slots that keep dying without
// the queue making progress are given up after a strike budget, so a
// broken binary or unreachable host degrades the fleet instead of spinning
// it forever.
//
// The launcher is deliberately process-level (fork/exec + waitpid): ssh is
// the only remote transport, and the remote host needs nothing but a
// `bbrsweep` binary and the shared queue mount. Remote workers run under
// a forced pty (ssh -tt), so killing the local ssh client — fleet
// teardown, Ctrl-C — or losing the connection SIGHUPs the remote worker
// rather than orphaning it. Should one survive anyway (e.g. sshd itself
// dies), the queue's lease protocol keeps the run correct: its claims
// expire and republish identical bytes. Production schedulers (k8s,
// slurm) replace this file, not the queue protocol.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace bbrmodel::orchestrator {

class WorkQueue;

/// Backlog-driven autoscaling: grow the fleet while the pending backlog
/// would take longer than `scale_up_backlog_s` to drain at the workers'
/// aggregate measured rate, shrink it once the backlog drops under
/// `scale_down_backlog_s`, always one slot at a time (rates are measured
/// per worker, so each step changes the denominator the next decision is
/// based on — jumping several slots on one stale measurement is how
/// autoscalers oscillate).
struct AutoscalePolicy {
  std::size_t min_workers = 1;
  std::size_t max_workers = 1;
  /// Scale up when pending / rate exceeds this many seconds.
  double scale_up_backlog_s = 20.0;
  /// Scale down when pending / rate falls under this many seconds.
  double scale_down_backlog_s = 4.0;
};

/// The measurements one scaling decision is made from.
struct ScaleInputs {
  std::size_t pending = 0;    ///< unclaimed cells
  std::size_t active = 0;     ///< cells under live claims
  double cells_per_s = 0.0;   ///< aggregate rate of live workers
};

/// Read a queue's ScaleInputs: pending/active from the O(1) counters
/// view, the rate summed over workers whose stats heartbeat is younger
/// than the queue's lease (dead workers must not inflate the denominator
/// and suppress a needed scale-up).
ScaleInputs gather_scale_inputs(const WorkQueue& queue);

/// The pure scaling decision: the fleet size to run next, given the
/// policy, the measurements, and the current size. Clamped to
/// [min_workers, max_workers], at most one step away from `current`.
/// No backlog at all steps toward min; a backlog with no measured rate
/// yet steps up (workers still warming up must not deadlock the fleet at
/// its floor).
std::size_t desired_fleet_size(const AutoscalePolicy& policy,
                               const ScaleInputs& inputs,
                               std::size_t current);

struct FleetOptions {
  /// The shared queue directory every worker drains.
  std::string queue_dir;
  /// Worker slots to keep filled.
  std::size_t workers = 1;
  /// Remote hosts (ssh): slot i runs on hosts[i % size]. Empty = all
  /// local. Hosts must share queue_dir (e.g. an NFS mount) and have
  /// `remote_command` on PATH.
  std::vector<std::string> ssh_hosts;
  /// Extra flags forwarded verbatim to every `bbrsweep worker` (e.g.
  /// --threads 4 --cache-dir /shared/cells).
  std::vector<std::string> worker_args;
  /// Local bbrsweep binary to exec (usually /proc/self/exe).
  std::string self_path;
  /// Command to run on ssh hosts (default: "bbrsweep" on the remote PATH).
  std::string remote_command = "bbrsweep";
  /// Consecutive slot deaths *without queue progress* before the slot is
  /// abandoned (a crash that moved the done-count resets the strikes).
  std::size_t max_strikes = 5;
  /// Monitor poll cadence.
  double poll_s = 0.5;
  /// How long to wait for a coordinator to seed the plan before failing.
  double plan_wait_s = 60.0;
  bool quiet = false;
  /// Backlog-driven elasticity (`--autoscale MIN:MAX`). When set,
  /// `workers` is ignored: the fleet starts at min_workers slots and the
  /// monitor loop grows/shrinks it by desired_fleet_size() every tick.
  /// Scale-downs SIGTERM the highest-index live slot; the queue's lease
  /// recovery re-enqueues whatever it held, so exactly-once is untouched.
  std::optional<AutoscalePolicy> autoscale;
};

struct FleetReport {
  std::size_t spawned = 0;       ///< processes launched, respawns included
  std::size_t respawned = 0;     ///< of those, restarts of a dead slot
  std::size_t abandoned_slots = 0;  ///< slots given up after max_strikes
  std::size_t scale_ups = 0;     ///< autoscaler grow decisions applied
  std::size_t scale_downs = 0;   ///< autoscaler shrink decisions applied
  bool completed = false;        ///< the plan finished while we watched
};

/// Run a fleet to completion: wait for the plan, keep `workers` slots
/// filled until every cell has a result, then reap the children (workers
/// exit on their own once the plan is done). SIGINT/SIGTERM tear the
/// fleet down (children get SIGTERM) and return with completed=false.
/// Throws PreconditionError when no plan appears within plan_wait_s.
FleetReport run_fleet(const FleetOptions& options);

}  // namespace bbrmodel::orchestrator
