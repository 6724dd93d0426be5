// Unit tests for src/common: statistics, tables, CSV, units, RNG, checks,
// deadlines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "common/csv.h"
#include "common/deadline.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/parse.h"
#include "common/require.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace bbrmodel {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStats, MergeMatchesPooledComputation) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(2.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // copy
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Percentile, MedianAndEdges) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50.0), PreconditionError);
  EXPECT_THROW(percentile({1.0}, -1.0), PreconditionError);
  EXPECT_THROW(percentile({1.0}, 101.0), PreconditionError);
}

TEST(Jain, EqualAllocationIsPerfectlyFair) {
  EXPECT_DOUBLE_EQ(jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
}

TEST(Jain, OneHotAllocationIsMinimal) {
  EXPECT_NEAR(jain_index({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(Jain, KnownTwoFlowValue) {
  // (1+3)^2 / (2*(1+9)) = 16/20 = 0.8
  EXPECT_NEAR(jain_index({1.0, 3.0}), 0.8, 1e-12);
}

TEST(Jain, ClampsNegativeRates) {
  EXPECT_NEAR(jain_index({-1.0, 2.0}), jain_index({0.0, 2.0}), 1e-12);
}

TEST(Jain, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
}

TEST(VectorStats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(stddev_of({2.0}), 0.0);
  EXPECT_NEAR(stddev_of({1.0, 2.0, 3.0}), 1.0, 1e-12);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_numeric_row("beta", {2.5}, 1);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
  EXPECT_THROW(Table({}), PreconditionError);
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os, {"t", "x"});
  w.write_row(std::vector<double>{1.0, 2.0});
  EXPECT_EQ(w.rows_written(), 1u);
  EXPECT_EQ(os.str(), "t,x\n1,2\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RejectsWrongWidth) {
  std::ostringstream os;
  CsvWriter w(os, {"a"});
  EXPECT_THROW(w.write_row(std::vector<double>{1.0, 2.0}), PreconditionError);
}

TEST(Units, RateConversionsRoundTrip) {
  const double pps = mbps_to_pps(100.0);
  EXPECT_NEAR(pps, 8333.3333, 1e-3);
  EXPECT_NEAR(pps_to_mbps(pps), 100.0, 1e-9);
}

TEST(Units, VolumeConversions) {
  EXPECT_DOUBLE_EQ(bytes_to_packets(3000.0), 2.0);
  EXPECT_DOUBLE_EQ(packets_to_bytes(2.0), 3000.0);
}

TEST(Units, BdpComputation) {
  // 100 Mbps × 30 ms ≈ 250 packets.
  EXPECT_NEAR(bdp_packets(mbps_to_pps(100.0), 0.030), 250.0, 0.5);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    const int k = r.uniform_int(-2, 2);
    EXPECT_GE(k, -2);
    EXPECT_LE(k, 2);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(1);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  EXPECT_FALSE(r.chance(-0.5));
  EXPECT_TRUE(r.chance(1.5));
}

TEST(CsvNumber, DeterministicFormatting) {
  EXPECT_EQ(csv_number(1.0), "1");
  EXPECT_EQ(csv_number(0.25), "0.25");
  EXPECT_EQ(csv_number(-3.5e-7), "-3.5e-07");
  EXPECT_EQ(csv_number(std::nan("")), "");
  EXPECT_EQ(csv_number(std::numeric_limits<double>::infinity()), "");
}

/// printf's rendering of `v` at `format`, in the C locale the tests run in.
std::string printf_number(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// The stored bytes of every number are printf's: %.17g for the exact
/// codecs, %.10g for CSV and JSON; and parse_number reads every exact
/// number back bit for bit. Old caches, plans and result logs stay
/// readable only while this holds, so it is checked on edge values and on
/// a million seeded random bit patterns (NaN payloads, subnormals and
/// infinities included).
TEST(NumberFormat, MatchesPrintfAndRoundTrips) {
  const auto check = [](double v) {
    if (std::isnan(v)) {
      EXPECT_EQ(exact_number(v), "nan");
      EXPECT_EQ(json_number(v), "null");
      EXPECT_EQ(csv_number(v), "");
      return;
    }
    if (std::isinf(v)) {
      EXPECT_EQ(exact_number(v), v > 0 ? "inf" : "-inf");
      EXPECT_EQ(json_number(v), "null");
      EXPECT_EQ(csv_number(v), "");
      return;
    }
    const std::string exact = exact_number(v);
    ASSERT_EQ(exact, printf_number("%.17g", v));
    ASSERT_EQ(json_number(v), printf_number("%.10g", v));
    ASSERT_EQ(csv_number(v), printf_number("%.10g", v));
    const auto back = parse_number<double>(exact);
    ASSERT_TRUE(back.has_value()) << exact;
    ASSERT_EQ(std::memcmp(&*back, &v, sizeof v), 0) << exact;
  };
  using limits = std::numeric_limits<double>;
  for (const double v :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 0.5, 1e21, 1e22,
        1e-7, 1e-5, 1e-4, 9.9999999995e-5, 9.99999999995e9, 1e10, 1e15, 1e16,
        1e17, 123456789012345678.0, 9007199254740993.0, 4503599627370496.5,
        0.30000000000000004, 2.885, 8333.333333, 50e-6, limits::min(),
        limits::max(), -limits::max(), limits::lowest(), limits::epsilon(),
        limits::denorm_min(), -limits::denorm_min(),
        limits::min() - limits::denorm_min(), limits::infinity(),
        -limits::infinity(), limits::quiet_NaN(), -limits::quiet_NaN()}) {
    check(v);
  }
  std::mt19937_64 bits(20221010);
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t pattern = bits();
    double v = 0.0;
    std::memcpy(&v, &pattern, sizeof v);
    check(v);
  }
}

TEST(Json, QuoteEscapesControlAndSpecialCharacters) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quote(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, NumberMapsNonFiniteToNull) {
  EXPECT_EQ(json_number(2.5), "2.5");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, WriterProducesWellFormedNesting) {
  std::ostringstream out;
  JsonWriter j(out);
  j.begin_object();
  j.key("name").value("sweep");
  j.key("count").value(std::uint64_t{3});
  j.key("ok").value(true);
  j.key("rows").begin_array();
  j.begin_object();
  j.key("x").value(1.5);
  j.end_object();
  j.value(2.0);
  j.end_array();
  j.key("empty").begin_object();
  j.end_object();
  j.end_object();
  EXPECT_TRUE(j.complete());
  EXPECT_EQ(out.str(),
            "{\n"
            "  \"name\": \"sweep\",\n"
            "  \"count\": 3,\n"
            "  \"ok\": true,\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"x\": 1.5\n"
            "    },\n"
            "    2\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}");
}

TEST(Json, WriterRejectsMisuse) {
  std::ostringstream out;
  JsonWriter j(out);
  EXPECT_THROW(j.key("top-level key"), PreconditionError);
  j.begin_object();
  EXPECT_THROW(j.value(1.0), PreconditionError);   // value without key
  EXPECT_THROW(j.end_array(), PreconditionError);  // wrong scope
  j.key("k");
  EXPECT_THROW(j.end_object(), PreconditionError);  // dangling key
  EXPECT_FALSE(j.complete());
}

TEST(Require, ThrowsTypedExceptions) {
  EXPECT_THROW(BBRM_REQUIRE(false), PreconditionError);
  EXPECT_THROW(BBRM_REQUIRE_MSG(false, "context"), PreconditionError);
  EXPECT_NO_THROW(BBRM_REQUIRE(true));
  try {
    BBRM_REQUIRE_MSG(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
  }
}

TEST(TryParseDouble, FullStringSemantics) {
  EXPECT_EQ(try_parse_double("2.5"), std::optional<double>(2.5));
  EXPECT_EQ(try_parse_double("-0.75"), std::optional<double>(-0.75));
  EXPECT_EQ(try_parse_double("1e-3"), std::optional<double>(1e-3));
  EXPECT_FALSE(try_parse_double("").has_value());
  EXPECT_FALSE(try_parse_double(" 1").has_value())
      << "leading whitespace must not be skipped";
  EXPECT_FALSE(try_parse_double("1.5s").has_value())
      << "trailing bytes must reject";
  EXPECT_FALSE(try_parse_double("abc").has_value());
}

TEST(Deadline, PollsAreNoOpsWithoutADeadline) {
  EXPECT_NO_THROW(poll_deadline());
  {
    const ScopedDeadline generous(600.0);
    EXPECT_NO_THROW(poll_deadline());
    EXPECT_FALSE(generous.expired());
  }
  EXPECT_NO_THROW(poll_deadline());
}

TEST(Deadline, ExpiredScopeThrowsAndRestoresTheOuterOne) {
  const ScopedDeadline outer(600.0);
  {
    const ScopedDeadline inner(0.0);
    EXPECT_TRUE(inner.expired());
    EXPECT_THROW(poll_deadline(), DeadlineExceeded);
  }
  EXPECT_NO_THROW(poll_deadline());
  EXPECT_FALSE(outer.expired());
}

TEST(Deadline, IsPerThreadAndHugeBudgetsNeverExpire) {
  const ScopedDeadline spent(0.0);
  bool other_thread_threw = true;
  std::thread other([&] {
    try {
      poll_deadline();
      other_thread_threw = false;
    } catch (const DeadlineExceeded&) {
    }
  });
  other.join();
  EXPECT_FALSE(other_thread_threw);
  std::thread forever([] {
    const ScopedDeadline huge(1e300);
    EXPECT_FALSE(huge.expired());
    EXPECT_NO_THROW(poll_deadline());
  });
  forever.join();
}

}  // namespace
}  // namespace bbrmodel
