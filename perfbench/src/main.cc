// perfbench: one run of one workload of the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//             [--spans FILE] [--smoke] [--corrupt]
//
// Builds the workload's plan (set-up, timed several times), then repeats
// timed passes until S seconds have been measured and checks the outputs.
// A host-speed probe before the first pass and after each pass scales the
// end-to-end times (calibrate.h); the raw pass times and the probes are
// reported beside them. Untraced runs report the end-to-end metrics.
// Traced runs alternate untraced and traced passes and report the
// per-layer metrics taken from the traced passes' spans, plus the tracing
// overhead between the two.
// Prints one JSON object on stdout; perfbench/run.py builds and drives
// this binary and prints the benchmark's result line.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "calibrate.h"
#include "check.h"
#include "common/hash.h"
#include "common/json.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using bbrmodel::orchestrator::ExecutionPlan;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  fs::path dir;
  std::string spans;
  bool smoke = false;    ///< shrunken inputs (self-test)
  bool corrupt = false;  ///< corrupt the first pass's CSV (self-test)
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --dir DIR [--spans FILE] [--smoke] "
               "[--corrupt]\n",
               problem.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--dir") {
        opt.dir = value();
      } else if (arg == "--spans") {
        opt.spans = value();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--corrupt") {
        opt.corrupt = true;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opt.workload.empty() || opt.dir.empty()) {
    usage("--workload and --dir are required");
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Median of a non-empty sample; 0 for an empty one.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-up as a user pays it before the first cell runs: build the plan.
/// (Creating the run's directories is left out: on a virtual disk it cost
/// nine tenths of the figure and swung fourfold between processes, and no
/// change to the library can move it.) One round repeats it for at least
/// 0.1 s and five times, times each repetition scaled by `host_scale`, and
/// returns the plan of the last; rounds run before the first pass and
/// after every pass, so the median samples the whole run, not one moment.
ExecutionPlan time_setup(const Workload& w, const Options& opt,
                         double host_scale, std::vector<double>& times) {
  constexpr std::size_t kMinReps = 5;
  constexpr double kRoundS = 0.1;
  ExecutionPlan plan;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < kMinReps || seconds_since(start) < kRoundS;
       ++rep) {
    plan = ExecutionPlan();  // free the previous plan outside the timing
    const auto t0 = std::chrono::steady_clock::now();
    plan = w.plan(opt.seed, opt.smoke);
    times.push_back(host_scale * seconds_since(t0));
  }
  return plan;
}

// ------------------------------------------------------------ per layer --

/// Per-layer metrics from the spans of the traced passes.
class LayerReport {
 public:
  void add_pass(const std::vector<SpanRecord>& spans, std::size_t cells);
  std::map<std::string, double> metrics() const;

 private:
  std::map<std::string, std::vector<double>> durations_;  // by span name
  std::map<std::string, double> counts_;                  // Σ count by name
  std::map<std::string, double> self_s_;                  // by layer
  double thread_s_ = 0.0;
  std::vector<double> busy_frac_, tail_s_, drain_overhead_us_;
};

void LayerReport::add_pass(const std::vector<SpanRecord>& spans,
                           std::size_t cells) {
  std::map<std::uint32_t, const SpanRecord*> by_id;
  std::map<std::uint32_t, double> child_s;
  for (const SpanRecord& s : spans) {
    by_id[s.id] = &s;
    child_s[s.parent] += s.seconds();
  }
  // Runner calls: direct children of a parallel phase span.
  std::map<std::uint32_t, double> call_s;                 // by phase id
  std::map<std::uint32_t, std::map<std::uint32_t, std::int64_t>> last_end;
  for (const SpanRecord& s : spans) {
    durations_[s.name].push_back(s.seconds());
    counts_[s.name] += static_cast<double>(s.count);
    const double self = s.width * s.seconds() - child_s[s.id];
    self_s_[s.layer()] += self;
    thread_s_ += self;
    const auto parent = by_id.find(s.parent);
    if (parent != by_id.end() && parent->second->width > 1) {
      call_s[s.parent] += s.seconds();
      auto& end = last_end[s.parent][s.thread];
      end = std::max(end, s.end_ns);
    }
  }
  for (const auto& [id, phase] : by_id) {
    if (phase->width <= 1) continue;
    const double capacity = phase->width * phase->seconds();
    if (std::string(phase->name) == "sweep.execute") {
      busy_frac_.push_back(ratio(call_s[id], capacity));
      std::int64_t first = phase->end_ns, last = phase->start_ns;
      for (const auto& [thread, end] : last_end[id]) {
        first = std::min(first, end);
        last = std::max(last, end);
      }
      tail_s_.push_back(last_end[id].empty() ? 0.0 : 1e-9 * (last - first));
    } else {
      drain_overhead_us_.push_back(
          1e6 * ratio(capacity - call_s[id], static_cast<double>(cells)));
    }
  }
}

std::map<std::string, double> LayerReport::metrics() const {
  const auto times = [&](const char* name) {
    const auto it = durations_.find(name);
    return it == durations_.end() ? std::vector<double>{} : it->second;
  };
  const auto total = [&](const char* name) {
    double sum = 0.0;
    for (const double d : times(name)) sum += d;
    return sum;
  };
  const auto count = [&](const char* name) {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
  };
  const auto calls = [&](const char* name) {
    return static_cast<double>(times(name).size());
  };
  const auto self_frac = [&](const char* layer) {
    const auto it = self_s_.find(layer);
    return it == self_s_.end() ? 0.0 : ratio(it->second, thread_s_);
  };
  std::map<std::string, double> m;
  m["core.batch_ns_per_agent_step"] =
      1e9 * ratio(total("core.fluid_batch"), count("core.fluid_batch"));
  m["core.batch_cells_mean"] =
      ratio(count("sweep.run_batch"), calls("sweep.run_batch"));
  m["core.fluid_ns_per_agent_step"] =
      1e9 * ratio(total("core.fluid_run"), count("core.fluid_run"));
  m["core.fluid_run_ms_p50"] = 1e3 * median(times("core.fluid_run"));
  m["core.fluid_run_ms_p90"] = 1e3 * percentile(times("core.fluid_run"), 0.9);
  m["scenario.build_fluid_ms"] = 1e3 * median(times("scenario.build_fluid"));
  m["scenario.build_packet_ms"] = 1e3 * median(times("scenario.build_packet"));
  m["packetsim.ns_per_event"] =
      1e9 * ratio(total("packetsim.run"), count("packetsim.run"));
  m["packetsim.events_per_cell"] =
      ratio(count("packetsim.run"), calls("packetsim.run"));
  m["packetsim.run_ms_p50"] = 1e3 * median(times("packetsim.run"));
  m["packetsim.run_ms_p90"] = 1e3 * percentile(times("packetsim.run"), 0.9);
  m["metrics.evaluate_fluid_ms"] =
      1e3 * median(times("metrics.evaluate_fluid"));
  m["metrics.packet_aggregate_ms"] =
      1e3 * median(times("metrics.packet_aggregate"));
  m["analysis.reduced_us_per_cell"] =
      1e6 * ratio(total("analysis.reduced"), calls("analysis.reduced"));
  m["sweep.busy_frac"] = median(busy_frac_);
  m["sweep.tail_s"] = median(tail_s_);
  std::vector<double> emit;
  const auto csv = times("sweep.write_csv");
  const auto json = times("sweep.write_json");
  for (std::size_t i = 0; i < std::min(csv.size(), json.size()); ++i) {
    emit.push_back(csv[i] + json[i]);
  }
  m["sweep.emit_s"] = median(emit);
  m["orchestrator.seed_s"] = median(times("orchestrator.seed"));
  m["orchestrator.load_plan_s"] = median(times("orchestrator.load_plan"));
  m["orchestrator.drain_s"] = median(times("orchestrator.drain"));
  m["orchestrator.drain_overhead_us_per_cell"] = median(drain_overhead_us_);
  m["orchestrator.collect_csv_s"] = median(times("orchestrator.collect_csv"));
  m["orchestrator.collect_json_s"] =
      median(times("orchestrator.collect_json"));
  for (const char* layer : {"core", "scenario", "packetsim", "metrics",
                            "analysis", "sweep", "orchestrator"}) {
    m[std::string(layer) + ".self_frac"] = self_frac(layer);
  }
  m["trace.attributed_frac"] = 1.0 - self_frac("bench");
  return m;
}

const std::map<std::string, std::string>& layer_units() {
  static const std::map<std::string, std::string> units = {
      {"core.batch_ns_per_agent_step", "ns"},
      {"core.batch_cells_mean", "cells"},
      {"core.fluid_ns_per_agent_step", "ns"},
      {"core.fluid_run_ms_p50", "ms"},
      {"core.fluid_run_ms_p90", "ms"},
      {"scenario.build_fluid_ms", "ms"},
      {"scenario.build_packet_ms", "ms"},
      {"packetsim.ns_per_event", "ns"},
      {"packetsim.events_per_cell", "count"},
      {"packetsim.run_ms_p50", "ms"},
      {"packetsim.run_ms_p90", "ms"},
      {"metrics.evaluate_fluid_ms", "ms"},
      {"metrics.packet_aggregate_ms", "ms"},
      {"analysis.reduced_us_per_cell", "us"},
      {"sweep.busy_frac", "ratio"},
      {"sweep.tail_s", "s"},
      {"sweep.emit_s", "s"},
      {"orchestrator.seed_s", "s"},
      {"orchestrator.load_plan_s", "s"},
      {"orchestrator.plan_bytes", "bytes"},
      {"orchestrator.drain_s", "s"},
      {"orchestrator.drain_overhead_us_per_cell", "us"},
      {"orchestrator.collect_csv_s", "s"},
      {"orchestrator.collect_json_s", "s"},
      {"orchestrator.queue_files", "count"},
      {"core.self_frac", "ratio"},
      {"scenario.self_frac", "ratio"},
      {"packetsim.self_frac", "ratio"},
      {"metrics.self_frac", "ratio"},
      {"analysis.self_frac", "ratio"},
      {"sweep.self_frac", "ratio"},
      {"orchestrator.self_frac", "ratio"},
      {"trace.attributed_frac", "ratio"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

// ---------------------------------------------------------------- report --

/// The CPU's brand string, from the processor itself (no file is read).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = 0, unused = 0;
  if (__get_cpuid(0x80000000u, &max_leaf, &unused, &unused, &unused) &&
      max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string model(brand);
    const std::size_t first = model.find_first_not_of(' ');
    const std::size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

struct Metric {
  double value;
  std::string unit;
};

void print_report(const Options& opt, const std::vector<PassResult>& plain,
                  const std::vector<PassResult>& traced,
                  const std::vector<double>& probes,
                  std::size_t attempted, std::size_t failed,
                  const std::vector<std::string>& problems,
                  const std::string& csv_digest,
                  const std::string& json_digest,
                  const std::map<std::string, Metric>& metrics) {
  std::string out;
  const auto quote = [](const std::string& s) {
    return bbrmodel::json_quote(s);
  };
  const auto number = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return std::string(buf);
  };
  out += "{\"workload\":" + quote(opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"trace\":" + std::string(opt.trace ? "true" : "false");
  const auto list = [&](const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      text += (i ? "," : "") + number(values[i]);
    }
    return text + "]";
  };
  const auto walls = [&](const std::vector<PassResult>& passes) {
    std::vector<double> values;
    for (const PassResult& p : passes) values.push_back(p.wall_s);
    return list(values);
  };
  out += ",\"pass_wall_s\":" + walls(plain);
  out += ",\"traced_pass_wall_s\":" + walls(traced);
  out += ",\"host_probe_s\":" + list(probes);
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"problems\":[";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    out += (i ? "," : "") + quote(problems[i]);
  }
  out += "],\"digests\":{\"csv\":" + quote(csv_digest) +
         ",\"json\":" + quote(json_digest) + "}";
  out += ",\"build\":{\"compiler\":" + quote(PERFBENCH_COMPILER) +
         ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
         ",\"cpu\":" + quote(cpu_model()) + "}";
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += (first ? "" : ",") + quote(name) + ":{\"value\":" +
           number(m.value) + ",\"unit\":" + quote(m.unit) + "}";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

int run(const Options& opt) {
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) usage("unknown workload " + opt.workload);
  fs::remove_all(opt.dir);
  fs::create_directories(opt.dir);

  // Host speed (calibrate.h), probed before the first pass and after every
  // pass. A pass's times are scaled by the mean of the two probes around
  // it, a set-up round's by the probe just before it.
  const auto probe = [] { return median(host_probe(kThreads)); };
  std::vector<double> probes = {probe()};
  std::vector<double> setup_times;
  const ExecutionPlan plan =
      time_setup(*w, opt, kReferenceProbeS / probes.back(), setup_times);

  // Passes until the measured time reaches --seconds. A traced run
  // alternates untraced and traced passes and needs at least one of each.
  // Pass 0 is untraced: its outputs are checked and its digests are the
  // ones every later pass must repeat, and the process's peak RSS is read
  // at its end, so the figure does not depend on how many passes fit.
  std::vector<PassResult> plain, traced;
  std::vector<std::string> problems;
  std::string csv_digest, json_digest;
  std::size_t attempted = 0, failed = 0;
  double measured_s = 0.0;
  for (std::size_t k = 0; measured_s < opt.seconds ||
                          (opt.trace && (plain.empty() || traced.empty()));
       ++k) {
    const bool traced_pass = opt.trace && k % 2 == 1;
    PassResult pass = run_pass(*w, plan, opt.seed,
                               opt.dir / ("pass-" + std::to_string(k)),
                               traced_pass);
    probes.push_back(probe());
    pass.host_scale =
        kReferenceProbeS / (0.5 * (probes[k] + probes[k + 1]));
    measured_s += pass.wall_s;
    attempted += pass.cells;
    failed += pass.failed;
    const auto digest = [](const std::string& bytes) {
      return bbrmodel::hex64(bbrmodel::fnv1a64(bytes));
    };
    if (k == 0) {
      const auto positions =
          check_positions(plan.size(), w->check_cells, opt.seed);
      if (opt.corrupt) corrupt_row(pass.csv, positions.front());
      const std::string check =
          check_output(plan, pass.csv, pass.json, pass.failed, positions);
      if (!check.empty()) problems.push_back(check);
      csv_digest = digest(pass.csv);
      json_digest = digest(pass.json);
    } else if (digest(pass.csv) != csv_digest ||
               digest(pass.json) != json_digest) {
      problems.push_back(std::string(traced_pass ? "traced " : "") + "pass " +
                         std::to_string(k) +
                         " output bytes differ from pass 0");
    }
    pass.csv = std::string();
    pass.json = std::string();
    (traced_pass ? traced : plain).push_back(std::move(pass));
    time_setup(*w, opt, kReferenceProbeS / probes.back(), setup_times);
  }

  const auto cells_per_s = [](const std::vector<PassResult>& passes) {
    std::vector<double> v;
    for (const auto& p : passes) {
      v.push_back(ratio(p.cells, p.host_scale * p.wall_s));
    }
    return median(v);
  };
  std::map<std::string, Metric> metrics;
  if (!opt.trace) {
    std::vector<double> cpu_ms;
    for (const auto& p : plain) {
      cpu_ms.push_back(1e3 * ratio(p.host_scale * p.cpu_s, p.cells));
    }
    metrics["cells_per_s"] = {cells_per_s(plain), "cells/s"};
    metrics["cpu_ms_per_cell"] = {median(cpu_ms), "ms"};
    metrics["peak_rss_mb"] = {plain.front().peak_rss_mb, "MB"};
    metrics["setup_s"] = {median(setup_times), "s"};
  } else {
    LayerReport layers;
    std::vector<std::vector<SpanRecord>> spans;
    for (auto& p : traced) {
      layers.add_pass(p.spans, p.cells);
      spans.push_back(std::move(p.spans));
    }
    for (const auto& [name, value] : layers.metrics()) {
      metrics[name] = {value, layer_units().at(name)};
    }
    const double plain_cps = cells_per_s(plain);
    metrics["trace.overhead_pct"] = {
        100.0 * ratio(plain_cps - cells_per_s(traced), plain_cps), "%"};
    metrics["orchestrator.plan_bytes"] = {
        static_cast<double>(traced.front().plan_bytes), "bytes"};
    metrics["orchestrator.queue_files"] = {
        static_cast<double>(traced.front().queue_files), "count"};
    if (!opt.spans.empty() && !write_chrome_trace(opt.spans, spans)) {
      problems.push_back("cannot write spans to " + opt.spans);
    }
  }
  fs::remove_all(opt.dir);
  print_report(opt, plain, traced, probes, attempted, failed, problems,
               csv_digest, json_digest, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
