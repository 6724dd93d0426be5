// Tests of bbrsweep's flag table (src/cli): every documented default is
// what parsing nothing gives, every subcommand outside a row's list
// rejects its flag, every value check rejects what its range excludes,
// fleet forwards exactly the worker flags it was given, in argv order, and
// --help renders every row once.
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/fluid_config.h"
#include "orchestrator/execution_plan.h"

namespace bbrmodel::cli {
namespace {

std::vector<Command> all_commands() {
  std::vector<Command> out;
  for (int c = 0; c < kCommandCount; ++c) {
    out.push_back(static_cast<Command>(c));
  }
  return out;
}

bool takes(const Flag& flag, Command command) {
  return (flag.commands & bit(command)) != 0;
}

/// The flag's spellings: "-o|--out" has two.
std::vector<std::string> spellings(const Flag& flag) {
  const std::string name = flag.name;
  const auto bar = name.find('|');
  if (bar == std::string::npos) return {name};
  return {name.substr(0, bar), name.substr(bar + 1)};
}

/// The arguments each subcommand needs before any optional flag.
std::vector<std::string> base_args(Command command) {
  switch (command) {
    case Command::kSweep:
      return {};
    case Command::kPlan:
      return {"plan"};
    case Command::kMerge:
      return {"merge", "--csv", "m.csv", "shard.csv"};
    case Command::kCache:
      return {"cache", "gc", "--max-bytes", "1M"};
    default:
      return {command_name(command), "--queue-dir", "q"};
  }
}

/// A value that passes the row's check.
std::string sample(const Flag& flag) {
  if (flag.def != nullptr) return flag.def;
  const std::string name = flag.name;
  if (name == "--triage") return "fluid";
  if (name == "--autoscale") return "1:2";
  if (name == "--max-bytes") return "1K";
  return flag.check == Check::kText ? "x" : "1";
}

Options parse_with(Command command, const std::vector<std::string>& extra) {
  auto args = base_args(command);
  args.insert(args.end(), extra.begin(), extra.end());
  return parse(args);
}

/// Everything a subcommand reads from Options, as text: the dense plan's
/// bytes stand for the grid and scenario rows, the field for the rest.
/// fleet.worker_args is left out: forwarding is checked on its own.
std::string fingerprint(const Options& o) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << orchestrator::ExecutionPlan::dense(o.grid, o.base, o.run.base_seed,
                                            o.runner_name)
             .serialize()
      << '\n';
  out << o.run.threads << ' ' << o.run.timeout_s << ' ' << o.run.max_attempts
      << ' ' << o.run.batch_cells << ' ' << o.run.shard.index << '/'
      << o.run.shard.count << ' ' << o.run.triage.name << ' '
      << o.run.runner.name << '\n';
  for (const auto metric : o.policy.metrics) out << to_string(metric) << ',';
  out << ' ' << o.policy.threshold << ' ' << o.policy.max_depth << ' '
      << o.policy.max_cells << ' ' << o.adaptive << ' '
      << o.triage_duration_s << '\n';
  const auto text = [](const std::optional<std::string>& v) {
    return v ? "'" + *v + "'" : std::string("unset");
  };
  out << text(o.cache_dir) << ' ' << o.csv_path.value_or("-") << ' '
      << text(o.json_path) << ' ' << o.quiet << o.trace << ' '
      << static_cast<int>(o.log_level) << '\n';
  out << text(o.queue_dir) << ' ' << o.lease_s.value_or(-1.0) << ' '
      << o.skew_margin_s.value_or(-1.0) << ' ' << o.poll_s << ' '
      << o.plan_wait_s << ' ' << o.segment_cells << '\n';
  out << o.worker.worker_id << ' ' << o.worker.max_cells << ' '
      << o.worker.batch_cells << '\n';
  out << o.fleet.workers << ' ' << o.fleet.remote_command << ' '
      << o.fleet.max_strikes << ' ' << o.fleet.ssh_hosts.size() << ' '
      << (o.fleet.autoscale ? o.fleet.autoscale->max_workers : 0) << '\n';
  out << o.deep << o.status_json << o.metrics << ' ' << o.trace_out << ' '
      << text(o.plan_path) << ' ' << o.max_bytes.value_or(0) << ' ';
  for (const auto& arg : o.positional) out << arg << ' ';
  return out.str();
}

// ------------------------------------------------------------------ table --

TEST(CliTable, RowsAreWellFormedAndNamesUniquePerSubcommand) {
  for (const Flag& flag : flags()) {
    SCOPED_TRACE(flag.name);
    EXPECT_EQ(flag.arg == nullptr, flag.check == Check::kSwitch);
    EXPECT_NE(std::string(flag.help), "");
    EXPECT_NE(flag.commands & (kFwd - 1), 0u);
    if (flag.commands & kFwd) {
      // fleet checks the flag as a worker would: both must take it.
      EXPECT_TRUE(takes(flag, Command::kWorker));
      EXPECT_TRUE(takes(flag, Command::kFleet));
    }
  }
  // One name may have two rows (status's --json switch, the output --json
  // PATH) only when no subcommand takes both.
  for (const Command command : all_commands()) {
    std::vector<std::string> seen;
    for (const Flag& flag : flags()) {
      if (!takes(flag, command)) continue;
      for (const auto& name : spellings(flag)) {
        EXPECT_EQ(std::count(seen.begin(), seen.end(), name), 0) << name;
        seen.push_back(name);
      }
    }
  }
}

// --------------------------------------------------------------- defaults --

TEST(CliDefaults, EveryDocumentedDefaultParsesLikeNothing) {
  std::size_t checked = 0;
  for (const Command command : all_commands()) {
    const auto base = base_args(command);
    const std::string unset = fingerprint(parse(base));
    for (const Flag& flag : flags()) {
      if (flag.def == nullptr || !takes(flag, command)) continue;
      const auto spelled = spellings(flag);
      if (std::find(base.begin(), base.end(), spelled.back()) != base.end()) {
        continue;  // merge's --csv OUT is required, so it has no default
      }
      SCOPED_TRACE(std::string(flag.name) + " " + flag.def + " for `" +
                   command_name(command) + "`");
      EXPECT_EQ(fingerprint(parse_with(command, {spelled.back(), flag.def})),
                unset);
      ++checked;
    }
  }
  EXPECT_GE(checked, 60u);
}

TEST(CliDefaults, StepAndCapacityMatchTheLibraryConstants) {
  const Options step = parse({"--step", "50"});
  EXPECT_EQ(step.base.fluid.step_s, core::FluidConfig{}.step_s);
  for (const std::string us : {"10", "25", "100", "200"}) {
    // The decimal literal, as a FluidConfig written in code would hold it.
    EXPECT_EQ(parse({"--step", us}).base.fluid.step_s, std::stod(us + "e-6"))
        << us;
  }
  // The CLI's 100 Mbps is mbps_to_pps(100), not ExperimentSpec's literal.
  EXPECT_EQ(parse({}).base.capacity_pps, mbps_to_pps(100.0));
  EXPECT_EQ(parse({"--rtts", "9:13"}).grid.rtt_ranges[0].min_s, 0.009);
}

// ------------------------------------------------------------------ scope --

TEST(CliScope, EverySubcommandOutsideARowRejectsItsFlag) {
  std::size_t checked = 0;
  for (const Flag& flag : flags()) {
    for (const Command command : all_commands()) {
      for (const auto& name : spellings(flag)) {
        bool taken = false;  // another row of this name may apply
        for (const Flag& other : flags()) {
          const auto names = spellings(other);
          taken |= takes(other, command) &&
                   std::find(names.begin(), names.end(), name) != names.end();
        }
        if (taken) continue;
        std::vector<std::string> extra = {name};
        if (flag.arg != nullptr) extra.push_back(sample(flag));
        SCOPED_TRACE(name + " on `" + command_name(command) + "`");
        try {
          parse_with(command, extra);
          ADD_FAILURE() << "accepted";
        } catch (const UsageError& e) {
          EXPECT_NE(std::string(e.what()).find("does not apply to `bbrsweep"),
                    std::string::npos)
              << e.what();
        }
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 200u);
}

TEST(CliScope, FlagsThatUsedToBeIgnoredAreRejected) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"plan", "--shard", "1/2"},
           {"plan", "--json", "p.json"},
           {"plan", "--batch-cells", "4"},
           {"coordinator", "--queue-dir", "q", "--batch-cells", "4"},
           {"worker", "--queue-dir", "q", "--segment-cells", "4"},
           {"--queue-dir", "q"},
           {"plan", "--trace"}}) {
    EXPECT_THROW(parse(args), UsageError) << args[0] << " " << args[1];
  }
}

TEST(CliScope, SubcommandRulesFailAsUsageErrors) {
  EXPECT_THROW(parse({"--bogus"}), UsageError);
  EXPECT_THROW(parse({"--duration"}), UsageError);      // needs a value
  EXPECT_THROW(parse({"stray"}), UsageError);           // no positionals
  EXPECT_THROW(parse({"worker"}), UsageError);          // needs --queue-dir
  EXPECT_THROW(parse({"merge", "a.csv"}), UsageError);  // no output
  EXPECT_THROW(parse({"merge", "--csv", "m", "--json", "j", "a"}), UsageError);
  EXPECT_THROW(parse({"merge", "--csv", "m"}), UsageError);  // no inputs
  EXPECT_THROW(parse({"cache"}), UsageError);
  EXPECT_THROW(parse({"cache", "prune"}), UsageError);
  EXPECT_THROW(parse({"cache", "gc"}), UsageError);  // needs --max-bytes
  EXPECT_THROW(parse({"cache", "stats", "--max-bytes", "1"}), UsageError);

  const Options merge = parse({"merge", "--json", "m.json", "a", "b"});
  EXPECT_EQ(merge.positional, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(parse({"cache", "gc", "--max-bytes", "2g"}).max_bytes.value_or(0),
            2ull << 30);
  EXPECT_TRUE(parse({"trace", "--help", "--bogus"}).help);
}

// ----------------------------------------------------------------- values --

TEST(CliChecks, ValueChecksRejectWhatTheirRangeExcludes) {
  const std::vector<std::string> never = {"nan", "inf", "-inf", "-2", "",
                                          " 2", "2x"};
  for (const Flag& flag : flags()) {
    if (flag.check == Check::kSwitch || flag.check == Check::kText) continue;
    Command command = Command::kSweep;  // the first subcommand taking it
    for (const Command c : all_commands()) {
      if (takes(flag, c)) {
        command = c;
        break;
      }
    }
    const std::string name = spellings(flag).back();
    SCOPED_TRACE(name);
    auto bad = never;
    std::vector<std::string> good = {"2", "3"};
    switch (flag.check) {
      case Check::kCount:
        bad.insert(bad.end(), {"+2", "1.5", "-0"});
        good.push_back("0");
        break;
      case Check::kCountMin1:
        bad.insert(bad.end(), {"+2", "1.5", "0"});
        break;
      case Check::kPositive:
        bad.insert(bad.end(), {"0", "-0", "-0.5"});
        good.insert(good.end(), {"+2", "0.5"});
        break;
      default:  // kNonNegative
        bad.push_back("-0.5");
        good.insert(good.end(), {"+2", "0", "0.5"});
        break;
    }
    if (std::string(flag.arg) == "LIST") bad.insert(bad.end(), {"2,", "2,-2"});
    for (const auto& value : bad) {
      try {
        parse_with(command, {name, value});
        ADD_FAILURE() << "accepted '" << value << "'";
      } catch (const UsageError& e) {
        // The row's declared check rejects it, not a later conversion.
        EXPECT_NE(std::string(e.what()).find("(want "), std::string::npos)
            << e.what();
      }
    }
    for (const auto& value : good) {
      EXPECT_NO_THROW(parse_with(command, {name, value})) << value;
    }
  }
}

TEST(CliChecks, StructuredValuesAndChoicesAreChecked) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--shard", "2/2"},        {"--shard", "+0/2"},
           {"--shard", "0/0"},        {"--shard", "0"},
           {"--rtts", "40:30"},       {"--rtts", "nan:40"},
           {"--rtts", "30:inf"},      {"--rtts", "0:40"},
           {"--rtts", "30"},          {"--mixes", "bbrv1+cubic+reno"},
           {"--mixes", "bbrv1/"},     {"--mixes", "bbrv1/cubic+reno"},
           {"--backends", "warp"},    {"--rtt-dist", "zipf"},
           {"--workload", "ring"},    {"--triage", "oracle"},
           {"--log-level", "loud"},   {"--refine-metric", "bogus"},
           {"--disciplines", "codel"}, {"--cache-dir", ""},
           {"--csv", ""}}) {
    EXPECT_THROW(parse(args), UsageError) << args[0] << " " << args[1];
  }
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--autoscale", "0:2"},
                                             {"--autoscale", "3:2"},
                                             {"--autoscale", "+1:2"},
                                             {"--autoscale", "1"},
                                             {"--ssh", "a,,b"}}) {
    EXPECT_THROW(parse_with(Command::kFleet, args), UsageError) << args[1];
  }
  for (const char* bytes : {"", "K", "+1K", "-1", "99999999999999999999G"}) {
    EXPECT_THROW(parse({"cache", "gc", "--max-bytes", bytes}), UsageError)
        << bytes;
  }
  try {
    parse({"--refine-metric", "jain,bogus"});
    ADD_FAILURE() << "accepted";
  } catch (const UsageError& e) {
    // The library's grammar, without its source location.
    const std::string what = e.what();
    EXPECT_NE(what.find("valid: jain, loss, occupancy, utilization"),
              std::string::npos)
        << what;
    EXPECT_EQ(what.find("precondition failed"), std::string::npos) << what;
  }
  try {
    parse({"--buffers", "1,-2"});
    ADD_FAILURE() << "accepted";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--buffers item '-2'"),
              std::string::npos)
        << e.what();
  }
  const Options o = parse({"--shard", "1/3", "--rtts", "10:20,30:30",
                           "--rtt-dist", "pareto", "--mixes",
                           "bbrv1+reno,bbrv1/cubic/reno"});
  EXPECT_EQ(o.run.shard.index, 1u);
  EXPECT_EQ(o.run.shard.count, 3u);
  ASSERT_EQ(o.grid.rtt_ranges.size(), 2u);
  EXPECT_EQ(o.grid.rtt_ranges[1].dist, sweep::RttDist::kPareto);
  EXPECT_EQ(o.grid.mixes[0].label, "BBRv1+RENO");
}

// ------------------------------------------------------------------ fleet --

TEST(CliFleet, WorkerArgsAreTheForwardedFlagsInArgvOrder) {
  std::vector<std::string> args = {"--workers", "2"};
  std::vector<std::string> forwarded;
  for (const Flag& flag : flags()) {
    if (!(flag.commands & kFwd)) continue;
    std::vector<std::string> one = {flag.name};
    if (flag.arg != nullptr) one.push_back(sample(flag));
    args.insert(args.end(), one.begin(), one.end());
    forwarded.insert(forwarded.end(), one.begin(), one.end());
    args.insert(args.end(), {"--max-strikes", "3"});  // fleet's own
  }
  EXPECT_GE(forwarded.size(), 20u);
  EXPECT_EQ(parse_with(Command::kFleet, args).fleet.worker_args, forwarded);
  // Any order: the forwarded flags keep it.
  const std::vector<std::string> reversed = {"--poll", "0.2", "--quiet",
                                             "--threads", "4"};
  EXPECT_EQ(parse_with(Command::kFleet, reversed).fleet.worker_args, reversed);
  // Checked as a worker would before anything is spawned.
  EXPECT_THROW(parse_with(Command::kFleet, {"--threads", "abc"}), UsageError);
  EXPECT_THROW(parse_with(Command::kFleet, {"--lease", "0"}), UsageError);
  EXPECT_THROW(parse_with(Command::kFleet, {"--worker-id", "w"}), UsageError);
}

// ------------------------------------------------------------------- help --

std::string squeeze(const std::string& text) {
  std::istringstream words(text);
  std::string out;
  for (std::string word; words >> word;) out += word + ' ';
  return out;
}

TEST(CliHelp, UsagePrintsEachRowsHelpExactlyOnce) {
  const std::string help = squeeze(usage());
  for (const Flag& flag : flags()) {
    const std::string text = squeeze(flag.help);
    std::size_t count = 0;
    for (auto at = help.find(text); at != std::string::npos;
         at = help.find(text, at + 1)) {
      ++count;
    }
    EXPECT_EQ(count, 1u) << flag.name;
    if (flag.def != nullptr) {
      EXPECT_NE(help.find(text + "(default " + flag.def + ")"),
                std::string::npos)
          << flag.name;
    }
  }
}

}  // namespace
}  // namespace bbrmodel::cli
