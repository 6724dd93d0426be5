// Tests of the content-addressed cell cache and its foundations: the
// stable FNV-1a hash, the canonical spec codec (round-trip + sensitivity),
// cache hit/miss behavior, the zero-simulation-work warm-rerun guarantee,
// and shard-output merging.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/require.h"
#include "common/units.h"
#include "scenario/spec_codec.h"
#include "sweep/cell_cache.h"
#include "sweep/merge.h"
#include "sweep/sweep.h"

namespace bbrmodel {
namespace {

TEST(Fnv1a64, MatchesPublishedVectors) {
  // Vectors from the FNV reference implementation (Noll).
  EXPECT_EQ(fnv1a64(""), kFnv1a64Offset);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64, ChainsIncrementally) {
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
  EXPECT_EQ(fnv1a64_bytes("foobar", 6), fnv1a64("foobar"));
}

TEST(Hex64, FixedWidthLowercase) {
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(hex64(~0ULL), "ffffffffffffffff");
}

TEST(ExactNumber, RoundTripsBitExactly) {
  for (double v : {0.1, 1.0 / 3.0, 8333.333333, 2.885, 1e-300, 6.02e23,
                   -0.0312, 50e-6}) {
    EXPECT_EQ(std::strtod(exact_number(v).c_str(), nullptr), v);
  }
}

scenario::ExperimentSpec nondefault_spec() {
  scenario::ExperimentSpec spec;
  spec.mix = scenario::half_half(scenario::CcaKind::kBbrv2,
                                 scenario::CcaKind::kCubic, 6);
  spec.capacity_pps = mbps_to_pps(250.0);
  spec.bottleneck_delay_s = 0.007;
  spec.min_rtt_s = 0.021;
  spec.max_rtt_s = 0.055;
  spec.buffer_bdp = 3.5;
  spec.flow_rtts_s = {0.021, 0.025, 0.032, 0.040, 0.048, 0.055};
  spec.discipline = net::Discipline::kRed;
  spec.duration_s = 2.25;
  spec.seed = 0xfeedfacecafeULL;
  spec.fluid.step_s = 25e-6;
  spec.fluid.literal_eq18 = true;
  spec.fluid.model_startup = true;
  spec.fluid.startup_full_bw_rounds = 5;
  spec.fluid.bbr2_beta = 0.35;
  return spec;
}

TEST(SpecCodec, RoundTripsEveryField) {
  const auto spec = nondefault_spec();
  const std::string bytes = scenario::canonical_spec_string(spec);
  const auto parsed = scenario::parse_canonical_spec(bytes);

  // Byte-level round trip implies every serialized field survived.
  EXPECT_EQ(scenario::canonical_spec_string(parsed), bytes);

  // Spot-check representative fields of each type.
  EXPECT_EQ(parsed.mix.label, spec.mix.label);
  EXPECT_EQ(parsed.mix.flows, spec.mix.flows);
  EXPECT_EQ(parsed.capacity_pps, spec.capacity_pps);
  EXPECT_EQ(parsed.discipline, spec.discipline);
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_EQ(parsed.fluid.step_s, spec.fluid.step_s);
  EXPECT_EQ(parsed.fluid.literal_eq18, spec.fluid.literal_eq18);
  EXPECT_EQ(parsed.fluid.startup_full_bw_rounds,
            spec.fluid.startup_full_bw_rounds);
  EXPECT_EQ(parsed.fluid.bbr2_beta, spec.fluid.bbr2_beta);
}

TEST(SpecCodec, AnySemanticChangeChangesTheBytes) {
  const auto base = nondefault_spec();
  const std::string reference = scenario::canonical_spec_string(base);

  auto changed = base;
  changed.seed += 1;
  EXPECT_NE(scenario::canonical_spec_string(changed), reference);

  changed = base;
  changed.buffer_bdp += 1e-9;
  EXPECT_NE(scenario::canonical_spec_string(changed), reference);

  changed = base;
  changed.fluid.k_time += 1.0;
  EXPECT_NE(scenario::canonical_spec_string(changed), reference);

  changed = base;
  changed.mix.flows.back() = scenario::CcaKind::kReno;
  EXPECT_NE(scenario::canonical_spec_string(changed), reference);

  changed = base;
  changed.flow_rtts_s[0] += 1e-9;
  EXPECT_NE(scenario::canonical_spec_string(changed), reference)
      << "per-flow RTT vectors are simulation-relevant";

  changed = base;
  changed.flow_rtts_s.clear();
  EXPECT_NE(scenario::canonical_spec_string(changed), reference);
}

TEST(SpecCodec, EmptyFlowRttsRoundTrip) {
  auto spec = nondefault_spec();
  spec.flow_rtts_s.clear();
  const auto parsed =
      scenario::parse_canonical_spec(scenario::canonical_spec_string(spec));
  EXPECT_TRUE(parsed.flow_rtts_s.empty());
}

TEST(SpecCodec, RejectsMalformedInput) {
  const auto spec = nondefault_spec();
  const std::string bytes = scenario::canonical_spec_string(spec);

  EXPECT_THROW(scenario::parse_canonical_spec("not a spec"),
               PreconditionError);
  EXPECT_THROW(scenario::parse_canonical_spec(bytes + "surprise=1\n"),
               PreconditionError);
  // Truncation drops required fields.
  EXPECT_THROW(
      scenario::parse_canonical_spec(bytes.substr(0, bytes.size() / 2)),
      PreconditionError);

  // Numbers must be spelled the way the encoder spells them: no sign but a
  // leading '-' on signed fields, no whitespace, no hex, nothing out of
  // range (an int field must not wrap).
  const auto with_field = [&bytes](const std::string& key,
                                   const std::string& value) {
    const auto start = bytes.find("\n" + key + "=") + 1;
    const auto end = bytes.find('\n', start);
    return bytes.substr(0, start) + key + "=" + value + bytes.substr(end);
  };
  EXPECT_NO_THROW(scenario::parse_canonical_spec(with_field("seed", "7")));
  for (const auto& [key, value] : std::vector<std::pair<std::string,
                                                         std::string>>{
           {"seed", "-1"},
           {"seed", "+7"},
           {"seed", " 7"},
           {"fluid.startup_full_bw_rounds", "4294967297"},
           {"buffer_bdp", " 0.5"},
           {"buffer_bdp", "+0.5"},
           {"buffer_bdp", "0x1p-1"},
       }) {
    EXPECT_THROW(scenario::parse_canonical_spec(with_field(key, value)),
                 PreconditionError)
        << key << "=" << value;
  }
}

TEST(SpecCodec, CustomBbrInitIsUncacheable) {
  auto spec = nondefault_spec();
  EXPECT_TRUE(scenario::spec_cacheable(spec));
  spec.bbr_init = [](std::size_t) { return core::BbrInit{}; };
  EXPECT_FALSE(scenario::spec_cacheable(spec));
  EXPECT_THROW(scenario::canonical_spec_string(spec), PreconditionError);
}

}  // namespace
}  // namespace bbrmodel

namespace bbrmodel::sweep {
namespace {

/// Fresh scratch directory under the test temp root.
std::string scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(CellKey, SeparatesRunnersBackendsAndSpecs) {
  SweepTask task = make_task(0, Backend::kFluid,
                             bbrmodel::nondefault_spec(), /*base_seed=*/7);
  SweepTask other = make_task(1, Backend::kFluid,
                              bbrmodel::nondefault_spec(), 7);

  EXPECT_EQ(cell_key("fluid", task), cell_key("fluid", task));
  EXPECT_NE(cell_key("fluid", task), cell_key("packet", task));
  EXPECT_NE(cell_key("fluid", task), cell_key("fluid", other))
      << "different task indices derive different seeds";
  SweepTask as_packet = task;
  as_packet.backend = Backend::kPacket;
  EXPECT_NE(cell_key("fluid", task), cell_key("fluid", as_packet));
  EXPECT_THROW(cell_key("", task), PreconditionError);
}

TEST(CellCache, StoresAndReloadsExactly) {
  CellCache cache(scratch_dir("cellcache_roundtrip"));
  metrics::AggregateMetrics m;
  m.jain = 1.0 / 3.0;
  m.loss_pct = 8.9686674800393877;
  m.occupancy_pct = 0.1;
  m.utilization_pct = 98.0799912593069;
  m.jitter_ms = 1e-9;
  m.mean_rate_pps = {3193.1982242802223, 3083.2638888383626};
  m.aux = {0.25};

  EXPECT_FALSE(cache.load("missing").has_value());
  cache.store("cell-a", m);
  const auto loaded = cache.load("cell-a");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->jain, m.jain);
  EXPECT_EQ(loaded->loss_pct, m.loss_pct);
  EXPECT_EQ(loaded->occupancy_pct, m.occupancy_pct);
  EXPECT_EQ(loaded->utilization_pct, m.utilization_pct);
  EXPECT_EQ(loaded->jitter_ms, m.jitter_ms);
  EXPECT_EQ(loaded->mean_rate_pps, m.mean_rate_pps);
  EXPECT_EQ(loaded->aux, m.aux);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stores(), 1u);

  // Empty vectors round-trip too (trailing empty CSV field).
  metrics::AggregateMetrics bare;
  cache.store("cell-b", bare);
  const auto reloaded = cache.load("cell-b");
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_TRUE(reloaded->mean_rate_pps.empty());
  EXPECT_TRUE(reloaded->aux.empty());
}

TEST(CellCache, DamagedCellsReadAsMisses) {
  const std::string dir = scratch_dir("cellcache_damaged");
  CellCache cache(dir);
  metrics::AggregateMetrics m;
  m.mean_rate_pps = {1.0, 2.0};
  cache.store("cell", m);

  // Corrupt the vector field: must be a miss, not a hit with no rates.
  const auto path = std::filesystem::path(dir) / "cell.cell";
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    text.replace(text.find("1 2"), 3, "1 x");
    std::ofstream(path, std::ios::trunc) << text;
  }
  EXPECT_FALSE(cache.load("cell").has_value());

  // A stale/garbled header likewise.
  std::ofstream(path, std::ios::trunc) << "old,header\n1,2\n";
  EXPECT_FALSE(cache.load("cell").has_value());
}

/// A deterministic pure-function-of-the-spec runner that counts
/// invocations — the stand-in for an expensive simulation.
Runner counting_runner(std::atomic<std::size_t>& calls) {
  return make_runner("synthetic", [&calls](const SweepTask& task) {
            calls.fetch_add(1);
            metrics::AggregateMetrics m;
            m.jain = 1.0;
            m.loss_pct = task.spec.buffer_bdp;
            m.occupancy_pct = static_cast<double>(task.spec.seed % 1000);
            m.utilization_pct = 100.0;
            m.mean_rate_pps = {task.spec.capacity_pps};
            return m;
          });
}

ParameterGrid synthetic_grid() {
  ParameterGrid grid;
  grid.backends = {Backend::kFluid, Backend::kPacket};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp = {1.0, 2.0, 3.0};
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {homogeneous_mix(scenario::CcaKind::kBbrv1),
                homogeneous_mix(scenario::CcaKind::kBbrv2)};
  return grid;
}

TEST(CellCache, WarmRerunDoesZeroSimulationWork) {
  const std::string dir = scratch_dir("cellcache_warm");
  const auto grid = synthetic_grid();
  const scenario::ExperimentSpec base;
  std::atomic<std::size_t> calls{0};

  std::ostringstream cold_csv, cold_json;
  {
    CellCache cache(dir);
    SweepOptions options;
    options.runner = counting_runner(calls);
    options.cache = &cache;
    const auto cold = run_sweep(grid, base, options);
    cold.write_csv(cold_csv);
    cold.write_json(cold_json);
    EXPECT_EQ(calls.load(), grid.cardinality());
    EXPECT_EQ(cache.misses(), grid.cardinality());
    EXPECT_EQ(cache.stores(), grid.cardinality());
    for (const auto& row : cold.rows()) EXPECT_FALSE(row.cached);
  }

  calls.store(0);
  {
    CellCache cache(dir);  // fresh counters, same store
    SweepOptions options;
    options.runner = counting_runner(calls);
    options.cache = &cache;
    const auto warm = run_sweep(grid, base, options);
    EXPECT_EQ(calls.load(), 0u) << "a warm rerun must not simulate";
    EXPECT_EQ(cache.hits(), grid.cardinality());
    EXPECT_EQ(cache.misses(), 0u);
    for (const auto& row : warm.rows()) {
      EXPECT_TRUE(row.cached);
      EXPECT_EQ(row.attempts, 0u);
    }

    std::ostringstream warm_csv, warm_json;
    warm.write_csv(warm_csv);
    warm.write_json(warm_json);
    EXPECT_EQ(warm_csv.str(), cold_csv.str())
        << "cache state must never change the bytes";
    EXPECT_EQ(warm_json.str(), cold_json.str());
  }
}

TEST(CellCache, TransientFailureIsReAttemptedOnTheNextCachedRun) {
  // Regression: a task that fails once must not be memoized — serving the
  // old NaN metrics forever would mean retries never happen on warm
  // reruns sharing the cache directory.
  const std::string dir = scratch_dir("cellcache_transient");
  std::atomic<std::size_t> calls{0};
  Runner flaky = make_runner("synthetic", [&calls](const SweepTask& task) {
                    // First invocation fails (a timeout stand-in); every
                    // later one succeeds.
                    if (calls.fetch_add(1) == 0) {
                      throw std::runtime_error("transient backend outage");
                    }
                    metrics::AggregateMetrics m;
                    m.jain = 1.0;
                    m.loss_pct = task.spec.buffer_bdp;
                    m.utilization_pct = 100.0;
                    return m;
                  });
  const std::vector<SweepTask> tasks = {make_task(
      0, Backend::kFluid,
      scenario::ExperimentSpec{}, 42)};

  CellCache cache(dir);
  SweepOptions options;
  options.runner = flaky;
  options.cache = &cache;
  const auto first = run_tasks(tasks, options);
  EXPECT_FALSE(first.row(0).ok);
  EXPECT_EQ(cache.stores(), 0u) << "failures must never be stored";

  const auto second = run_tasks(tasks, options);
  EXPECT_TRUE(second.row(0).ok)
      << "the cached rerun must re-attempt the task, not serve the "
         "failure";
  EXPECT_FALSE(second.row(0).cached);
  EXPECT_EQ(calls.load(), 2u);

  const auto third = run_tasks(tasks, options);
  EXPECT_TRUE(third.row(0).cached) << "the success memoizes as usual";
  EXPECT_EQ(calls.load(), 2u);
}

TEST(CellCache, FailedCellPayloadsReadAsMissesNotHits) {
  // A failed cell planted by hand (or by a pre-fix store) carries the
  // all-NaN scalar signature; load must refuse to serve it.
  const std::string dir = scratch_dir("cellcache_nan");
  CellCache cache(dir);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  metrics::AggregateMetrics failed;
  failed.jain = failed.loss_pct = failed.occupancy_pct =
      failed.utilization_pct = failed.jitter_ms = nan;
  std::ofstream(std::filesystem::path(dir) / "deadcell.cell")
      << encode_cell_metrics(failed);
  EXPECT_FALSE(cache.load("deadcell").has_value());
  EXPECT_EQ(cache.misses(), 1u);

  // store() skips the same signature outright.
  cache.store("deadcell2", failed);
  EXPECT_FALSE(
      std::filesystem::exists(std::filesystem::path(dir) / "deadcell2.cell"));

  // A partially-NaN success (a metric a runner legitimately cannot
  // compute) still round-trips.
  metrics::AggregateMetrics partial;
  partial.jain = 0.9;
  partial.jitter_ms = nan;
  cache.store("partial", partial);
  EXPECT_TRUE(cache.load("partial").has_value());
}

TEST(CellCache, UnnamedRunnersAndCustomInitsBypassTheCache) {
  const std::string dir = scratch_dir("cellcache_bypass");
  CellCache cache(dir);
  std::atomic<std::size_t> calls{0};

  // Unnamed runner: never cached.
  auto tasks = synthetic_grid().expand(scenario::ExperimentSpec{}, 42);
  SweepOptions options;
  Runner unnamed = counting_runner(calls);
  unnamed.name.clear();
  options.runner = unnamed;
  options.cache = &cache;
  run_tasks(tasks, options);
  run_tasks(tasks, options);
  EXPECT_EQ(calls.load(), 2 * tasks.size());
  EXPECT_EQ(cache.hits() + cache.misses() + cache.stores(), 0u);

  // Cacheable runner, uncacheable spec (custom bbr_init).
  calls.store(0);
  scenario::ExperimentSpec with_init;
  with_init.bbr_init = [](std::size_t) { return core::BbrInit{}; };
  with_init.mix = scenario::homogeneous(scenario::CcaKind::kBbrv2, 2);
  std::vector<SweepTask> init_tasks = {
      make_task(0, Backend::kFluid, with_init, 42)};
  options.runner = counting_runner(calls);
  run_tasks(init_tasks, options);
  run_tasks(init_tasks, options);
  EXPECT_EQ(calls.load(), 2u);
  EXPECT_EQ(cache.hits() + cache.misses() + cache.stores(), 0u);
}

TEST(CellCache, StatsCountFinishedCellsOnly) {
  const std::string dir = scratch_dir("cellcache_stats");
  CellCache cache(dir);
  EXPECT_EQ(cache.stats().cells, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);

  metrics::AggregateMetrics m;
  m.mean_rate_pps = {1.0, 2.0};
  cache.store("cell-a", m);
  cache.store("cell-b", m);
  // In-flight temp files and unrelated files must not count.
  std::ofstream(std::filesystem::path(dir) / "cell-c.cell.tmp.123")
      << "partial";
  std::ofstream(std::filesystem::path(dir) / "README") << "notes";

  const auto stats = cache.stats();
  EXPECT_EQ(stats.cells, 2u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(CellCache, GcEvictsOldestMtimeFirst) {
  const std::string dir = scratch_dir("cellcache_gc");
  CellCache cache(dir);
  metrics::AggregateMetrics m;
  m.mean_rate_pps = {1.0, 2.0, 3.0};
  const std::vector<std::string> keys = {"cell-w", "cell-x", "cell-y",
                                         "cell-z"};
  for (const auto& key : keys) cache.store(key, m);

  // Stagger modification times explicitly (store order is not a clock):
  // w oldest … z newest.
  const auto now = std::filesystem::file_time_type::clock::now();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    std::filesystem::last_write_time(
        std::filesystem::path(dir) / (keys[i] + ".cell"),
        now - std::chrono::hours(24 * (keys.size() - i)));
  }

  const auto per_cell = cache.stats().bytes / keys.size();
  const auto result = cache.gc(/*max_bytes=*/2 * per_cell);
  EXPECT_EQ(result.evicted_cells, 2u);
  EXPECT_EQ(result.kept_cells, 2u);
  EXPECT_LE(result.kept_bytes, 2 * per_cell);
  EXPECT_FALSE(cache.load("cell-w").has_value()) << "oldest must go first";
  EXPECT_FALSE(cache.load("cell-x").has_value());
  EXPECT_TRUE(cache.load("cell-y").has_value());
  EXPECT_TRUE(cache.load("cell-z").has_value());

  // A roomy budget is a no-op; zero clears the store.
  EXPECT_EQ(cache.gc(1 << 30).evicted_cells, 0u);
  const auto cleared = cache.gc(0);
  EXPECT_EQ(cleared.evicted_cells, 2u);
  EXPECT_EQ(cache.stats().cells, 0u);
}

TEST(CellCache, ManifestIndexesTheStoreWithoutDirectoryScans) {
  const std::string dir = scratch_dir("cellcache_manifest");
  CellCache cache(dir);
  metrics::AggregateMetrics m;
  m.mean_rate_pps = {1.0, 2.0};
  cache.store("cell-a", m);
  cache.store("cell-b", m);
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / "manifest.idx"));
  EXPECT_EQ(cache.stats().cells, 2u);

  // stats() reads the manifest, not the directory: a cell removed behind
  // the manifest's back goes unnoticed (the documented staleness) until
  // reindex() rebuilds the truth from the cells themselves.
  std::filesystem::remove(std::filesystem::path(dir) / "cell-a.cell");
  EXPECT_EQ(cache.stats().cells, 2u) << "stats must not rescan the store";
  const auto rebuilt = cache.reindex();
  EXPECT_EQ(rebuilt.cells, 1u);
  EXPECT_EQ(cache.stats().cells, 1u);

  // A gc prunes vanished entries too (sizes/mtimes come from the files).
  cache.store("cell-c", m);
  std::filesystem::remove(std::filesystem::path(dir) / "cell-b.cell");
  const auto result = cache.gc(1 << 30);
  EXPECT_EQ(result.kept_cells, 1u);
  EXPECT_EQ(cache.stats().cells, 1u);
}

TEST(CellCache, MissingManifestIsRebuiltOnFirstUse) {
  const std::string dir = scratch_dir("cellcache_reindex");
  CellCache cache(dir);
  metrics::AggregateMetrics m;
  m.aux = {1.0};
  cache.store("cell-a", m);
  cache.store("cell-b", m);
  std::filesystem::remove(std::filesystem::path(dir) / "manifest.idx");
  EXPECT_EQ(cache.stats().cells, 2u)
      << "stats on a manifest-less store must rebuild the index by scan";
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(dir) / "manifest.idx"));
}

TEST(CellCache, StoreIntoAPreManifestStoreIndexesTheLegacyCells) {
  // A directory written before the manifest existed: store() must rebuild
  // the full index before its own append, or the legacy cells would be
  // permanently invisible to stats/gc.
  const std::string dir = scratch_dir("cellcache_legacy");
  metrics::AggregateMetrics m;
  m.aux = {1.0};
  {
    CellCache cache(dir);
    cache.store("legacy-a", m);
    cache.store("legacy-b", m);
  }
  std::filesystem::remove(std::filesystem::path(dir) / "manifest.idx");

  CellCache upgraded(dir);
  upgraded.store("new-cell", m);  // first touch is a store, not stats()
  EXPECT_EQ(upgraded.stats().cells, 3u)
      << "legacy cells must survive the first post-upgrade store";
}

TEST(CellMetricsCodec, RoundTripsExactly) {
  metrics::AggregateMetrics m;
  m.jain = 1.0 / 3.0;
  m.loss_pct = 8.9686674800393877;
  m.occupancy_pct = std::numeric_limits<double>::quiet_NaN();
  m.utilization_pct = 98.0799912593069;
  m.jitter_ms = 1e-9;
  m.mean_rate_pps = {3193.1982242802223};
  m.aux = {};
  const auto decoded = decode_cell_metrics(encode_cell_metrics(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->jain, m.jain);
  EXPECT_EQ(decoded->loss_pct, m.loss_pct);
  EXPECT_TRUE(std::isnan(decoded->occupancy_pct));
  EXPECT_EQ(decoded->mean_rate_pps, m.mean_rate_pps);
  EXPECT_TRUE(decoded->aux.empty());
  EXPECT_FALSE(decode_cell_metrics("old,header\n1,2\n").has_value());
  EXPECT_FALSE(decode_cell_metrics("").has_value());

  // A cell the encoder cannot have written reads as a miss.
  const std::string header =
      "jain,loss_pct,occupancy_pct,utilization_pct,jitter_ms,"
      "mean_rate_pps,aux\n";
  EXPECT_TRUE(decode_cell_metrics(header + "1,2,3,4,5,6 7,\n").has_value());
  for (const std::string cell : {" 1", "+1", "0x1"}) {
    EXPECT_FALSE(
        decode_cell_metrics(header + cell + ",2,3,4,5,6 7,\n").has_value())
        << "'" << cell << "'";
    EXPECT_FALSE(
        decode_cell_metrics(header + "1,2,3,4,5,6 " + cell + ",\n")
            .has_value())
        << "'" << cell << "' in a vector";
  }
}

TEST(Merge, RejectsIncompleteOrDuplicatedUnions) {
  const auto grid = synthetic_grid();
  std::atomic<std::size_t> calls{0};
  SweepOptions options;
  options.runner = counting_runner(calls);

  SweepOptions shard0 = options;
  shard0.shard = {0, 2};
  std::ostringstream s0;
  run_sweep(grid, scenario::ExperimentSpec{}, shard0).write_csv(s0);

  EXPECT_THROW(merge_csv({s0.str()}), PreconditionError)
      << "a lone shard is missing tasks";
  EXPECT_THROW(merge_csv({s0.str(), s0.str()}), PreconditionError)
      << "a double-submitted shard duplicates tasks";
  EXPECT_THROW(merge_csv({}), PreconditionError);
  EXPECT_THROW(merge_json({"{}"}), PreconditionError);
}

}  // namespace
}  // namespace bbrmodel::sweep
