// bbrsweep's command line: one table of flags, one parse loop.
//
// Each row of flags() declares one flag once: its name, value placeholder,
// the subcommands that read it, whether `fleet` forwards it to workers, the
// check its value must pass, its documented default and its help text. The
// parser, the "does not apply" errors, fleet's forwarding and the --help
// flag lines are all generated from those rows, so they cannot drift apart.
// tools/bbrsweep.cc runs the subcommands on the parsed Options.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adaptive/policy.h"
#include "common/units.h"
#include "obs/log.h"
#include "orchestrator/fleet.h"
#include "orchestrator/work_queue.h"
#include "scenario/scenario.h"
#include "sweep/parameter_grid.h"
#include "sweep/sweep.h"

namespace bbrmodel::cli {

/// A malformed command line. bbrsweep turns it into exit status 2; the
/// parser never exits the process itself.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The subcommands, in `bbrsweep <name>` order; kSweep is the plain run.
enum class Command {
  kSweep, kPlan, kCoordinator, kWorker, kFleet, kStatus, kTrace, kMerge,
  kCache
};
constexpr int kCommandCount = static_cast<int>(Command::kCache) + 1;

/// "" for kSweep, else the subcommand's name.
const char* command_name(Command command);

/// A set of subcommands (bit i = Command i), plus kFwd.
using Commands = unsigned;
constexpr Commands bit(Command c) { return 1u << static_cast<unsigned>(c); }
/// Row marker: `fleet` checks the flag as a worker would, then passes it
/// on verbatim to every worker it spawns.
constexpr Commands kFwd = 1u << kCommandCount;

/// The check a flag's value passes before the row stores it. A row whose
/// placeholder is "LIST" takes comma-separated items and checks each one.
enum class Check {
  kSwitch,       ///< takes no value
  kText,         ///< non-empty
  kCount,        ///< integer >= 0, digits only (common/parse)
  kCountMin1,    ///< integer >= 1
  kPositive,     ///< finite and > 0
  kNonNegative,  ///< finite and >= 0
};

struct Options {
  Command command = Command::kSweep;
  bool help = false;
  /// Merge's input files, or cache's verb (stats, gc, reindex).
  std::vector<std::string> positional;

  // The cells and how they run.
  sweep::ParameterGrid grid;
  sweep::RttDist rtt_dist = sweep::RttDist::kUniform;
  scenario::ExperimentSpec base = [] {
    scenario::ExperimentSpec spec;
    spec.capacity_pps = mbps_to_pps(100.0);
    return spec;
  }();
  sweep::SweepOptions run;
  adaptive::RefinementPolicy policy;
  bool adaptive = false;
  double triage_duration_s = 0.0;
  /// The named runner baked into the plan: "backend" (the dumbbell,
  /// dispatched per the backend axis) or "parking-lot".
  std::string runner_name = "backend";
  std::optional<std::string> cache_dir, json_path;
  std::optional<std::string> csv_path;  ///< unset = stdout (not for merge)
  bool quiet = false, trace = false;
  obs::LogLevel log_level = obs::LogLevel::kInfo;

  // The work queue. An unset lease or skew margin is 60 s or lease/4 for
  // the coordinator; a worker adopts the coordinator's.
  std::optional<std::string> queue_dir;
  std::optional<double> lease_s, skew_margin_s;
  double poll_s = 0.5, plan_wait_s = 60.0;
  std::size_t segment_cells = 1;
  orchestrator::WorkerConfig worker;  ///< worker_id ("" = host-pid) and more
  orchestrator::FleetOptions fleet;   ///< incl. the forwarded worker_args

  // status, trace, merge, cache.
  bool deep = false, status_json = false, metrics = false;
  std::string trace_out = "run.trace.json";
  std::optional<std::string> plan_path;
  std::optional<std::uintmax_t> max_bytes;
};

struct Flag {
  const char* section;  ///< --help heading; a section's rows are adjacent
  const char* name;     ///< e.g. --step; '|' separates two spellings
  const char* arg;      ///< value placeholder; nullptr for a switch
  Commands commands;    ///< subcommands that read it (| kFwd)
  Check check;
  const char* def;      ///< literal documented default, or nullptr
  const char* help;
  /// Stores a value that passed `check`; throws why it still makes no sense.
  void (*set)(Options&, const std::string&);
};

/// Every flag, in --help order.
const std::vector<Flag>& flags();

/// Parse bbrsweep's arguments (argv without the program name). A first
/// argument naming a subcommand selects it. Throws UsageError on an
/// unknown flag, a flag the subcommand does not take, a value that fails
/// its check, or a missing required argument. Stops at --help.
Options parse(const std::vector<std::string>& args);

/// The --help text: synopsis, every row's flag line, and the flags each
/// subcommand takes and fleet forwards.
std::string usage();

}  // namespace bbrmodel::cli
