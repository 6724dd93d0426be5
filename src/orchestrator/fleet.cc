#include "orchestrator/fleet.h"

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/require.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "orchestrator/work_queue.h"

namespace bbrmodel::orchestrator {

namespace {

volatile std::sig_atomic_t g_fleet_stop = 0;

void fleet_signal_handler(int) { g_fleet_stop = 1; }

/// One worker slot: where it runs, what it is called, and its liveness.
struct Slot {
  std::string host;       // empty = local
  std::string worker_id;
  pid_t pid = -1;         // -1 = not running
  std::size_t strikes = 0;
  bool ever_spawned = false;  // distinguishes spawns from respawns
  bool abandoned = false;
  bool finished = false;  // exited after the plan completed
  bool scaling_down = false;  // SIGTERMed by the autoscaler: its exit is a
                              // planned drain, never a strike
};

/// Did this slot's last worker process publish anything? Its stats file
/// is removed before every spawn, so an entry with completed > 0 can only
/// come from the generation that just died — per-slot progress, immune to
/// the *other* workers moving the global done-count while a broken slot
/// flaps. One targeted file read; workers refresh the file on a ~1 s
/// throttle as they publish, so even a crash between heartbeat ticks
/// keeps (all but the last second of) its credit.
bool slot_made_progress(const WorkQueue& queue, const Slot& slot) {
  const auto stats = queue.read_worker_stats(slot.worker_id);
  return stats && stats->completed > 0;
}

/// Single-quote one token for the remote shell ssh hands its arguments
/// to — without this, a --queue-dir with a space would be re-split into
/// two arguments on the remote side.
std::string shell_quote(const std::string& token) {
  std::string out = "'";
  for (char c : token) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += '\'';
  return out;
}

/// The argv of one worker process. ssh slots wrap the remote command
/// (each remote token shell-quoted, since ssh concatenates them into one
/// remote command line); the remote host needs only the binary and the
/// shared queue mount.
std::vector<std::string> worker_argv(const FleetOptions& options,
                                     const Slot& slot) {
  const bool remote = !slot.host.empty();
  std::vector<std::string> argv;
  if (remote) {
    // -tt forces a pty so the remote worker's fate is tied to the
    // connection: SIGTERMing the local ssh client (fleet teardown) or a
    // dropped link closes the pty and the remote side gets SIGHUP —
    // without it, OpenSSH forwards no signals and Ctrl-C would orphan a
    // live worker on every host.
    argv = {"ssh", "-tt", "-o", "BatchMode=yes", slot.host,
            options.remote_command};
  } else {
    argv = {options.self_path};
  }
  const auto push = [&](const std::string& token) {
    argv.push_back(remote ? shell_quote(token) : token);
  };
  push("worker");
  push("--queue-dir");
  push(options.queue_dir);
  push("--worker-id");
  push(slot.worker_id);
  for (const auto& arg : options.worker_args) push(arg);
  return argv;
}

/// fork+exec one worker; -1 on a fork failure (transient EAGAIN under
/// pid/rlimit pressure must strike and retry on the next tick, never
/// throw past the monitor's wind-down and orphan the live workers).
pid_t spawn(const std::vector<std::string>& argv) {
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const auto& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execvp(raw[0], raw.data());
    // bbrlint:allow(no-raw-fprintf: post-fork child must not touch malloc —
    // obs::log builds std::strings; perror is the only safe diagnostic
    // before _exit)
    std::perror("bbrsweep fleet: exec");
    ::_exit(127);
  }
  if (pid < 0) {
    obs::log(obs::LogLevel::kError, "fleet fork failed: %s",
             std::strerror(errno));
  }
  return pid;
}

void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

ScaleInputs gather_scale_inputs(const WorkQueue& queue) {
  ScaleInputs inputs;
  const QueueCounters counters = queue.counters();
  inputs.pending = counters.pending;
  inputs.active = counters.active;
  for (const WorkerStats& stats : queue.read_worker_stats()) {
    // Only live workers' rates count: a stats file whose heartbeat went
    // stale past the lease belongs to a dead process, and a dead
    // denominator would report a healthy drain rate for a stalled queue.
    // The sliding-window rate (not the lifetime average) is what sizes
    // the fleet: a worker that idled through startup or just stalled
    // must not carry stale throughput into the drain estimate.
    if (stats.heartbeat_age_s < queue.lease_s() &&
        stats.window_cells_per_s > 0.0) {
      inputs.cells_per_s += stats.window_cells_per_s;
    }
  }
  return inputs;
}

std::size_t desired_fleet_size(const AutoscalePolicy& policy,
                               const ScaleInputs& inputs,
                               std::size_t current) {
  const std::size_t min_workers = policy.min_workers > 0
                                      ? policy.min_workers
                                      : std::size_t{1};
  const std::size_t max_workers =
      std::max(policy.max_workers, min_workers);
  const auto clamp = [&](std::size_t n) {
    return std::min(max_workers, std::max(min_workers, n));
  };
  if (current < min_workers) return clamp(current + 1);
  if (current > max_workers) return clamp(current - 1);
  if (inputs.pending == 0) {
    // Nothing left to claim: drain toward the floor. Active cells still
    // finish under their current workers; shrinking only removes claim
    // capacity nobody needs.
    return clamp(current > min_workers ? current - 1 : current);
  }
  if (inputs.cells_per_s <= 0.0) {
    // A backlog with no measured rate yet (workers warming up, or none
    // spawned): grow — staying put would deadlock a min=0-rate fleet.
    return clamp(current + 1);
  }
  const double drain_s =
      static_cast<double>(inputs.pending) / inputs.cells_per_s;
  if (drain_s > policy.scale_up_backlog_s) return clamp(current + 1);
  if (drain_s < policy.scale_down_backlog_s) return clamp(current - 1);
  return current;
}

FleetReport run_fleet(const FleetOptions& options) {
  BBRM_REQUIRE_MSG(!options.queue_dir.empty(), "fleet needs a queue dir");
  BBRM_REQUIRE_MSG(options.workers >= 1, "fleet needs at least one worker");
  BBRM_REQUIRE_MSG(!options.self_path.empty(),
                   "fleet needs the bbrsweep binary path to exec");

  const WorkQueue queue(options.queue_dir);
  double waited = 0.0;
  while (!queue.has_plan()) {
    BBRM_REQUIRE_MSG(waited < options.plan_wait_s,
                     "no plan appeared in " + options.queue_dir +
                         " (did the coordinator start?)");
    if (waited == 0.0 && !options.quiet) {
      obs::log(obs::LogLevel::kInfo, "fleet waiting for a plan in %s",
               options.queue_dir.c_str());
    }
    sleep_s(options.poll_s);
    waited += options.poll_s;
  }
  // The seed-time counters file gives the size — the plan itself is never
  // read just to know when the fleet may stand down. This also refuses a
  // directory seeded under an older queue layout.
  const std::size_t plan_size = queue.counters().total;

  const bool autoscaling = options.autoscale.has_value();
  const AutoscalePolicy policy =
      options.autoscale.value_or(AutoscalePolicy{});
  const std::size_t max_slots =
      autoscaling ? std::max(policy.max_workers, std::size_t{1})
                  : options.workers;
  // The fleet's size target this tick: fixed fleets keep every slot
  // filled; autoscaling ones start at the floor and let the backlog
  // decide. Slots at index >= target are parked, not abandoned.
  std::size_t target =
      autoscaling ? std::min(std::max(policy.min_workers, std::size_t{1}),
                             max_slots)
                  : options.workers;

  // Worker ids must be unique across *fleet instances*: two machines each
  // running `bbrsweep fleet` against one shared queue dir (the manual-ssh
  // replacement the README suggests) must not collide on identity — a
  // shared id would cross-wire strike accounting, stats files, result
  // logs and claim file names. Controller host + pid disambiguate.
  const std::string fleet_tag = default_worker_id();
  std::vector<Slot> slots(max_slots);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!options.ssh_hosts.empty()) {
      slots[i].host = options.ssh_hosts[i % options.ssh_hosts.size()];
    }
    slots[i].worker_id = sanitize_worker_id(
        "fleet-" + fleet_tag + "-" +
        (slots[i].host.empty() ? "local" : slots[i].host) + "-" +
        std::to_string(i));
  }

  // SIGINT/SIGTERM tear the whole fleet down instead of orphaning
  // children; the previous handlers come back before returning.
  g_fleet_stop = 0;
  struct sigaction action = {};
  action.sa_handler = fleet_signal_handler;
  struct sigaction old_int = {}, old_term = {};
  ::sigaction(SIGINT, &action, &old_int);
  ::sigaction(SIGTERM, &action, &old_term);

  FleetReport report;
  const auto launch = [&](std::size_t slot_index) {
    Slot& slot = slots[slot_index];
    const bool respawn = slot.ever_spawned;
    // A fresh generation writes fresh stats; removing the old file is
    // what makes slot_made_progress attribute `completed` correctly.
    queue.remove_worker_stats(slot.worker_id);
    const pid_t pid = spawn(worker_argv(options, slot));
    if (pid < 0) {
      ++slot.strikes;  // a fork failure is a death; retry next tick
      return;
    }
    slot.ever_spawned = true;
    slot.pid = pid;
    ++report.spawned;
    if (respawn) ++report.respawned;
    if (!options.quiet) {
      obs::log(obs::LogLevel::kInfo, "fleet %s worker %s (pid %d)%s%s",
               respawn ? "respawned" : "spawned", slot.worker_id.c_str(),
               static_cast<int>(pid), slot.host.empty() ? "" : " on ",
               slot.host.c_str());
    }
    if (respawn) obs::Registry::global().counter("fleet.respawns").add();
  };

  while (!g_fleet_stop) {
    // Fill every empty slot up to the current target (first pass spawns
    // the initial fleet); slots out of strikes are abandoned instead.
    for (std::size_t i = 0; i < target; ++i) {
      Slot& slot = slots[i];
      if (slot.pid >= 0 || slot.abandoned || slot.finished) continue;
      if (slot.strikes >= options.max_strikes) {
        slot.abandoned = true;
        ++report.abandoned_slots;
        if (!options.quiet) {
          obs::log(obs::LogLevel::kWarn,
                   "fleet abandoned worker %s after %zu death(s) without "
                   "progress",
                   slot.worker_id.c_str(), slot.strikes);
        }
        continue;
      }
      launch(i);
    }

    // Reap every exit that is ready — per known pid, never waitpid(-1):
    // an embedding process may have children of its own whose exit
    // statuses are not ours to steal.
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (slot.pid < 0) continue;
      int status = 0;
      const pid_t pid = ::waitpid(slot.pid, &status, WNOHANG);
      if (pid == 0) continue;  // still running
      if (pid < 0 && errno == EINTR) continue;  // try again next tick
      // Exited — or unwaitable (ECHILD under an inherited SIG_IGN
      // SIGCHLD auto-reaps children): either way the process is gone
      // for us, so it must go through the respawn/strike path rather
      // than pin the slot as alive forever.
      slot.pid = -1;
      if (slot.scaling_down) {
        // A planned drain, not a death: no strike either way, and the
        // slot only refills if the target grows back over it.
        slot.scaling_down = false;
        continue;
      }
      if (queue.done_count() >= plan_size) {
        slot.finished = true;
        continue;
      }
      // A death after publishing cells is honest work (a crash mid-plan,
      // or an intentional --max-cells exit): elastic means it just comes
      // back. Deaths without *this slot's own* progress accumulate
      // strikes so a broken binary or unreachable host cannot spin
      // forever, even while healthy peers keep the global count moving.
      if (slot_made_progress(queue, slot)) {
        slot.strikes = 0;
      } else {
        ++slot.strikes;
      }
    }

    if (queue.done_count() >= plan_size) {
      report.completed = true;
      break;
    }

    if (autoscaling) {
      const ScaleInputs inputs = gather_scale_inputs(queue);
      // Every decision tick records its inputs, so a merged timeline or
      // `status --metrics` can answer "why did the fleet (not) scale?".
      obs::Registry::global().gauge("fleet.pending").set(
          static_cast<double>(inputs.pending));
      obs::Registry::global().gauge("fleet.active").set(
          static_cast<double>(inputs.active));
      obs::Registry::global().gauge("fleet.cells_per_s").set(
          inputs.cells_per_s);
      const std::size_t desired =
          desired_fleet_size(policy, inputs, target);
      bool decided = false;
      if (desired > target) {
        target = desired;
        ++report.scale_ups;
        decided = true;
        obs::Registry::global().counter("fleet.scale_ups").add();
        if (!options.quiet) {
          obs::log(obs::LogLevel::kInfo,
                   "fleet scaled up to %zu workers "
                   "(backlog %zu cells at %.1f cells/s)",
                   target, inputs.pending, inputs.cells_per_s);
        }
      } else if (desired < target) {
        target = desired;
        ++report.scale_downs;
        decided = true;
        obs::Registry::global().counter("fleet.scale_downs").add();
        // Drain from the top: SIGTERM the highest slots first so the
        // surviving fleet stays a prefix and slot indices keep meaning
        // "spawn order". The worker finishes its in-flight cells'
        // publishes or dies mid-claim — either way the queue's lease
        // recovery keeps every cell exactly-once.
        for (std::size_t i = slots.size(); i-- > target;) {
          if (slots[i].pid >= 0 && !slots[i].scaling_down) {
            slots[i].scaling_down = true;
            ::kill(slots[i].pid, SIGTERM);
          }
        }
        if (!options.quiet) {
          obs::log(obs::LogLevel::kInfo,
                   "fleet scaled down to %zu workers "
                   "(backlog %zu cells at %.1f cells/s)",
                   target, inputs.pending, inputs.cells_per_s);
        }
      }
      if (decided) {
        obs::Registry::global().gauge("fleet.target_workers").set(
            static_cast<double>(target));
        try {
          // Ship the decision record home like any worker's snapshot.
          queue.write_worker_metrics(
              sanitize_worker_id("fleet-" + fleet_tag),
              obs::render_metrics(obs::Registry::global().snapshot()));
        } catch (...) {
          // Advisory, like stats: a failed metrics write never stops the
          // fleet.
        }
      }
    }

    bool work_possible = false;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      work_possible |=
          slot.pid >= 0 ||
          (i < target && !slot.abandoned && !slot.finished);
    }
    if (!work_possible) break;  // every slot abandoned, plan incomplete
    sleep_s(options.poll_s);
  }

  // Wind down: on completion workers exit on their own; on a signal or an
  // abandoned fleet they are told to stop.
  if (!report.completed) {
    for (const Slot& slot : slots) {
      if (slot.pid >= 0) ::kill(slot.pid, SIGTERM);
    }
  }
  for (const Slot& slot : slots) {
    if (slot.pid >= 0) {
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
    }
  }
  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  return report;
}

}  // namespace bbrmodel::orchestrator
