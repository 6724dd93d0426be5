// Tests of the bbrlint determinism & concurrency checker: every rule
// proves it fires on a minimal offending fixture, stays quiet on the
// clean variant, and honors a justified bbrlint:allow — so the linter
// itself is pinned by the same positive/negative evidence it demands of
// the tree. The final invariant lints the real repository: the shipped
// sources must stay clean with every suppression justified.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace bbrmodel::lint {
namespace {

bool fires(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// ------------------------------------------------------------- rule table --

TEST(LintRules, TableListsEveryRuleWithSummaryAndStableOrder) {
  const auto& all = rules();
  std::vector<std::string> names;
  for (const auto& r : all) {
    EXPECT_FALSE(r.summary.empty()) << r.name;
    names.push_back(r.name);
  }
  const std::vector<std::string> expected = {
      "no-unordered-iteration",     "no-wallclock-in-hot-path",
      "atomic-io-required",         "no-raw-fprintf",
      "single-writer-shard",        "csv-number-required",
      "suppression-needs-justification", "suppression-unknown-rule",
      "suppression-unused"};
  EXPECT_EQ(names, expected);
}

// ------------------------------------------------- no-unordered-iteration --

TEST(LintUnorderedIteration, FlagsRangeForOverUnorderedMap) {
  const std::string src = R"(
    std::unordered_map<std::string, int> cells;
    void dump() {
      for (const auto& kv : cells) { emit(kv); }
    }
  )";
  const auto findings = lint_source("src/sweep/fake.cc", src);
  ASSERT_TRUE(fires(findings, "no-unordered-iteration"))
      << render_text({findings});
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintUnorderedIteration, LookupOnlyUseIsClean) {
  const std::string src = R"(
    std::unordered_map<std::string, int> cells;
    int lookup(const std::string& k) { return cells.at(k); }
  )";
  EXPECT_TRUE(lint_source("src/sweep/fake.cc", src).empty());
}

TEST(LintUnorderedIteration, OrderedMapIterationIsClean) {
  const std::string src = R"(
    std::map<std::string, int> cells;
    void dump() {
      for (const auto& kv : cells) { emit(kv); }
    }
  )";
  EXPECT_TRUE(lint_source("src/sweep/fake.cc", src).empty());
}

TEST(LintUnorderedIteration, SeesMembersDeclaredInPairedHeader) {
  const std::string header = R"(
    class Store {
      std::unordered_map<std::string, int> by_name_;
    };
  )";
  const std::string src = R"(
    void Store::dump() {
      for (const auto& kv : by_name_) { emit(kv); }
    }
  )";
  EXPECT_TRUE(fires(lint_source("src/orchestrator/store.cc", src, header),
                    "no-unordered-iteration"));
  // Without the header the member's type is unknown: no finding.
  EXPECT_TRUE(lint_source("src/orchestrator/store.cc", src).empty());
}

TEST(LintUnorderedIteration, SuppressedWithJustification) {
  const std::string src = R"(
    std::unordered_set<int> seen;
    void dump() {
      // bbrlint:allow(no-unordered-iteration: fold is order-independent)
      for (int v : seen) { total += v; }
    }
  )";
  std::size_t honored = 0;
  EXPECT_TRUE(lint_source("src/sweep/fake.cc", src, "", &honored).empty());
  EXPECT_EQ(honored, 1u);
}

// ----------------------------------------------- no-wallclock-in-hot-path --

TEST(LintWallclock, FlagsSystemClockAndGlobalRng) {
  const std::string src = R"(
    double now() { return std::chrono::system_clock::now().time_since_epoch().count(); }
    int roll() { return rand() % 6; }
  )";
  const auto findings = lint_source("src/core/fake.cc", src);
  EXPECT_EQ(findings.size(), 2u) << render_text({findings});
  EXPECT_TRUE(fires(findings, "no-wallclock-in-hot-path"));
}

TEST(LintWallclock, SteadyClockIsClean) {
  const std::string src = R"(
    std::uint64_t t() {
      return std::chrono::steady_clock::now().time_since_epoch().count();
    }
  )";
  EXPECT_TRUE(lint_source("src/core/fake.cc", src).empty());
}

TEST(LintWallclock, MemberNamedRandIsClean) {
  // `rand` only counts as the C global when called as a free function.
  const std::string src = R"(
    int draw(Rng& rng) { return rng.rand(); }
    double t(const Sample& s) { return s.time; }
  )";
  EXPECT_TRUE(lint_source("src/core/fake.cc", src).empty());
}

TEST(LintWallclock, ObsLayerIsExempt) {
  const std::string src = R"(
    std::uint64_t unix_us() {
      return std::chrono::system_clock::now().time_since_epoch().count();
    }
  )";
  EXPECT_TRUE(lint_source("src/obs/fake.cc", src).empty());
}

TEST(LintWallclock, SuppressedWithJustification) {
  const std::string src = R"(
    // bbrlint:allow(no-wallclock-in-hot-path: log timestamp, not a result)
    double stamp() { return time(nullptr); }
  )";
  EXPECT_TRUE(lint_source("src/sweep/fake.cc", src).empty());
}

// ----------------------------------------------------- atomic-io-required --

TEST(LintAtomicIo, FlagsOfstreamAndWriteModeFopenInOrchestrator) {
  const std::string src = R"(
    void save(const std::string& path) {
      std::ofstream out(path);
      out << "x";
    }
    void append(const char* path) { FILE* f = fopen(path, "ab"); }
  )";
  const auto findings = lint_source("src/orchestrator/fake.cc", src);
  EXPECT_EQ(findings.size(), 2u) << render_text({findings});
  EXPECT_TRUE(fires(findings, "atomic-io-required"));
}

TEST(LintAtomicIo, ReadModeFopenIsClean) {
  const std::string src = R"(
    std::string load(const char* path) { FILE* f = fopen(path, "rb"); }
  )";
  EXPECT_TRUE(lint_source("src/orchestrator/fake.cc", src).empty());
}

TEST(LintAtomicIo, RuleIsScopedToOrchestrator) {
  const std::string src = R"(
    void save(const std::string& path) { std::ofstream out(path); }
  )";
  EXPECT_TRUE(lint_source("src/sweep/fake.cc", src).empty());
  EXPECT_TRUE(lint_source("tools/fake.cc", src).empty());
}

TEST(LintAtomicIo, SuppressedWithJustification) {
  const std::string src = R"(
    // bbrlint:allow(atomic-io-required: probe file exists only for mtime)
    void probe(const std::string& path) { std::ofstream out(path); }
  )";
  EXPECT_TRUE(lint_source("src/orchestrator/fake.cc", src).empty());
}

// --------------------------------------------------------- no-raw-fprintf --

TEST(LintRawFprintf, FlagsFprintfAndPerror) {
  const std::string src = R"(
    void warn() { std::fprintf(stderr, "bad\n"); }
    void die() { perror("exec"); }
  )";
  const auto findings = lint_source("src/sweep/fake.cc", src);
  EXPECT_EQ(findings.size(), 2u) << render_text({findings});
  EXPECT_TRUE(fires(findings, "no-raw-fprintf"));
}

TEST(LintRawFprintf, ObsLogAndStdoutPrintfAreClean) {
  const std::string src = R"(
    void warn() { obs::log(obs::LogLevel::kWarn, "bad"); }
    void show() { std::printf("table\n"); }
  )";
  EXPECT_TRUE(lint_source("src/sweep/fake.cc", src).empty());
}

TEST(LintRawFprintf, TrailingSameLineSuppression) {
  const std::string src =
      "void p() { std::fprintf(stderr, \"\\rtick\"); }  "
      "// bbrlint:allow(no-raw-fprintf: progress meter rewrites the line)\n";
  std::size_t honored = 0;
  EXPECT_TRUE(lint_source("src/sweep/fake.cc", src, "", &honored).empty());
  EXPECT_EQ(honored, 1u);
}

// ---------------------------------------------------- single-writer-shard --

TEST(LintSingleWriterShard, FlagsRmwOnMembersInObs) {
  const std::string src = R"(
    void add(std::uint64_t n) { value_.fetch_add(n); }
    void gate() { if (enabled_.exchange(false)) return; }
  )";
  const auto findings = lint_source("src/obs/fake.cc", src);
  EXPECT_EQ(findings.size(), 2u) << render_text({findings});
  EXPECT_TRUE(fires(findings, "single-writer-shard"));
}

TEST(LintSingleWriterShard, PlainLoadStoreIsClean) {
  const std::string src = R"(
    void add(std::uint64_t n) {
      value_.store(value_.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
    }
  )";
  EXPECT_TRUE(lint_source("src/obs/fake.cc", src).empty());
}

TEST(LintSingleWriterShard, StdExchangeIsNotAnAtomicRmw) {
  const std::string src = R"(
    void take(std::string& s) { auto old = std::exchange(s, std::string()); }
  )";
  EXPECT_TRUE(lint_source("src/obs/fake.cc", src).empty());
}

TEST(LintSingleWriterShard, RuleIsScopedToObs) {
  const std::string src = R"(
    void add(std::uint64_t n) { value_.fetch_add(n); }
  )";
  EXPECT_TRUE(lint_source("src/sweep/fake.cc", src).empty());
}

TEST(LintSingleWriterShard, SuppressedWithWrappedJustification) {
  // A justification may wrap across comment lines; the block anchors at
  // its last line and covers the statement below.
  const std::string src = R"(
    // bbrlint:allow(single-writer-shard: multi-writer fallback cell —
    // callers accept the RMW cost on this cold path)
    void add(std::uint64_t n) { base_.fetch_add(n); }
  )";
  std::size_t honored = 0;
  EXPECT_TRUE(lint_source("src/obs/fake.cc", src, "", &honored).empty());
  EXPECT_EQ(honored, 1u);
}

// ---------------------------------------------------- csv-number-required --

TEST(LintCsvNumber, FlagsFloatPrintfAndSetprecision) {
  const std::string src = R"(
    void emit(double v) { std::snprintf(buf, sizeof(buf), "%.6g", v); }
    void stream(std::ostream& os, double v) { os << std::setprecision(17) << v; }
  )";
  const auto findings = lint_source("src/metrics/fake.cc", src);
  EXPECT_EQ(findings.size(), 2u) << render_text({findings});
  EXPECT_TRUE(fires(findings, "csv-number-required"));
}

TEST(LintCsvNumber, IntegerFormatsAndEscapedPercentAreClean) {
  const std::string src = R"(
    void emit(std::size_t n) { std::snprintf(buf, sizeof(buf), "%zu cells", n); }
    void pct() { std::snprintf(buf, sizeof(buf), "100%% done"); }
  )";
  EXPECT_TRUE(lint_source("src/metrics/fake.cc", src).empty());
}

TEST(LintCsvNumber, ObsLogDiagnosticsAreExempt) {
  const std::string src = R"(
    void note(double rate) { obs::log(obs::LogLevel::kInfo, "%.1f cells/s", rate); }
  )";
  EXPECT_TRUE(lint_source("src/sweep/fake.cc", src).empty());
}

TEST(LintCsvNumber, SuppressedWithJustification) {
  const std::string src = R"(
    // bbrlint:allow(csv-number-required: this IS the designated renderer)
    void emit(double v) { std::snprintf(buf, sizeof(buf), "%.17g", v); }
  )";
  EXPECT_TRUE(lint_source("src/metrics/fake.cc", src).empty());
}

// ------------------------------------------------------ suppression rules --

TEST(LintSuppressions, AllowWithoutJustificationIsAFinding) {
  const std::string src = R"(
    // bbrlint:allow(no-raw-fprintf)
    void warn() { std::fprintf(stderr, "bad\n"); }
  )";
  const auto findings = lint_source("src/sweep/fake.cc", src);
  // The unjustified allow does not suppress, so both the meta-rule and
  // the underlying finding surface.
  EXPECT_TRUE(fires(findings, "suppression-needs-justification"))
      << render_text({findings});
  EXPECT_TRUE(fires(findings, "no-raw-fprintf"));
}

TEST(LintSuppressions, UnknownRuleNameIsAFinding) {
  const std::string src = R"(
    // bbrlint:allow(no-such-rule: because)
    void f() {}
  )";
  EXPECT_TRUE(fires(lint_source("src/sweep/fake.cc", src),
                    "suppression-unknown-rule"));
}

TEST(LintSuppressions, StaleAllowIsAFinding) {
  const std::string src = R"(
    // bbrlint:allow(no-raw-fprintf: this call was converted long ago)
    void warn() { obs::log(obs::LogLevel::kWarn, "bad"); }
  )";
  EXPECT_TRUE(fires(lint_source("src/sweep/fake.cc", src),
                    "suppression-unused"));
}

TEST(LintSuppressions, ProseQuotingTheGrammarIsIgnored) {
  // Documentation that spells the grammar with uppercase placeholders is
  // not a suppression attempt.
  const std::string src = R"(
    // Write bbrlint:allow(RULE: JUSTIFICATION) above the offending line.
    void f() {}
  )";
  EXPECT_TRUE(lint_source("src/sweep/fake.cc", src).empty());
}

TEST(LintSuppressions, AllowOnlyCoversItsOwnRule) {
  const std::string src = R"(
    // bbrlint:allow(no-raw-fprintf: wrong rule for this line)
    void emit(double v) { std::snprintf(buf, sizeof(buf), "%g", v); }
  )";
  const auto findings = lint_source("src/metrics/fake.cc", src);
  EXPECT_TRUE(fires(findings, "csv-number-required"));
  EXPECT_TRUE(fires(findings, "suppression-unused"));
}

// -------------------------------------------------------------- rendering --

TEST(LintRender, TextCarriesFileLineAndRule) {
  Report report;
  report.findings.push_back(
      {"src/sweep/fake.cc", 7, "no-raw-fprintf", "msg"});
  report.files_scanned = 3;
  const std::string text = render_text(report);
  EXPECT_NE(text.find("src/sweep/fake.cc:7: [no-raw-fprintf] msg"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("1 finding(s) in 3 file(s)"), std::string::npos) << text;
}

TEST(LintRender, JsonReportSchema) {
  Report report;
  report.findings.push_back(
      {"src/sweep/fake.cc", 7, "no-raw-fprintf", "raw \"quoted\" msg"});
  report.files_scanned = 3;
  report.suppressions_honored = 2;
  const std::string json = render_json(report);
  EXPECT_NE(json.find("\"files_scanned\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"suppressions_honored\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/sweep/fake.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"no-raw-fprintf\""), std::string::npos);
  // Quotes inside messages must be escaped, not truncate the document.
  EXPECT_NE(json.find("raw \\\"quoted\\\" msg"), std::string::npos) << json;

  Report empty;
  empty.files_scanned = 1;
  EXPECT_NE(render_json(empty).find("\"clean\": true"), std::string::npos);
  EXPECT_NE(render_json(empty).find("\"findings\": []"), std::string::npos);
}

// ------------------------------------------------------ repo invariant ----

#ifdef BBRM_REPO_ROOT
TEST(LintTree, ShippedTreeIsCleanWithJustifiedSuppressionsOnly) {
  // The acceptance gate of the linter itself: the real sources stay
  // clean, and every suppression in the tree both carries a justification
  // and still matches a live finding (stale allows fail above).
  const Report report =
      lint_tree(BBRM_REPO_ROOT, {"src", "tools", "bench"});
  EXPECT_TRUE(report.clean()) << render_text(report);
  EXPECT_GT(report.files_scanned, 100u);
  EXPECT_GT(report.suppressions_honored, 0u);
}

TEST(LintTree, UnknownRootThrows) {
  EXPECT_THROW(lint_tree(BBRM_REPO_ROOT, {"no-such-dir"}),
               std::runtime_error);
}
#endif

}  // namespace
}  // namespace bbrmodel::lint
