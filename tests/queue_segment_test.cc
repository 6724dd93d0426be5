// Tests of the segment queue (bbrm-queue-layout=3) and the fleet: packed
// pending segments claimed by one rename, per-worker append-only result
// logs with hash-sealed records, the O(1) counters view cross-checked
// against the exact store census, crash recovery mid-segment, re-enqueues
// as one segment, torn-tail truncation, byte-identity of the streaming
// collectors with the single-process run, the refusal of directories
// seeded under an older layout, the pure scale-up/scale-down decision
// function, and the fleet's completion check.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/require.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "orchestrator/execution_plan.h"
#include "orchestrator/fleet.h"
#include "orchestrator/work_queue.h"
#include "sweep/workloads.h"

namespace bbrmodel::orchestrator {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// A fast, deterministic, pure-function-of-the-spec runner standing in
/// for an expensive simulation (same shape as the orchestrator tests').
sweep::Runner synthetic_runner(std::atomic<std::size_t>* calls = nullptr) {
  return sweep::make_runner("synthetic",
                            [calls](const sweep::SweepTask& task) {
            if (calls != nullptr) calls->fetch_add(1);
            metrics::AggregateMetrics m;
            m.jain = 1.0;
            m.loss_pct = task.spec.buffer_bdp;
            m.occupancy_pct = static_cast<double>(task.spec.seed % 1000);
            m.utilization_pct = 100.0;
            m.jitter_ms = 0.25;
            m.mean_rate_pps = {task.spec.capacity_pps, 1.0 / 3.0};
            m.aux = {static_cast<double>(task.index)};
            return m;
          });
}

scenario::ExperimentSpec small_base() {
  scenario::ExperimentSpec base;
  base.capacity_pps = mbps_to_pps(20.0);
  base.duration_s = 0.5;
  return base;
}

/// A plan of `buffers * 2` cells (two mixes per buffer point).
ExecutionPlan plan_of(std::size_t buffers) {
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kFluid};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp.clear();
  for (std::size_t i = 0; i < buffers; ++i) {
    grid.buffers_bdp.push_back(0.25 * static_cast<double>(i + 1));
  }
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::half_half_mix(scenario::CcaKind::kBbrv1,
                                     scenario::CcaKind::kReno)};
  return ExecutionPlan::dense(grid, small_base(), 42);
}

struct Reference {
  std::string csv;
  std::string json;
};

Reference reference_bytes(const ExecutionPlan& plan,
                          const sweep::SweepOptions& options) {
  std::ostringstream csv, json;
  const auto result = execute(plan, options);
  result.write_csv(csv);
  result.write_json(json);
  return {csv.str(), json.str()};
}

WorkerConfig segment_worker(const std::string& id, double poll_s = 0.01) {
  WorkerConfig config;
  config.worker_id = id;
  config.poll_s = poll_s;
  return config;
}

std::size_t count_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) ++n;
  }
  return n;
}

/// The member lists of the pending segments, sorted.
std::vector<std::vector<std::size_t>> pending_segments(
    const WorkQueue& queue) {
  std::vector<std::vector<std::size_t>> segments;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queue.dir()) / "pending")) {
    std::ifstream in(entry.path());
    std::string line;
    std::getline(in, line);  // the "segment" header
    std::vector<std::size_t> members;
    while (std::getline(in, line)) members.push_back(std::stoul(line));
    segments.push_back(std::move(members));
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// Every pending member, sorted with duplicates kept.
std::vector<std::size_t> pending_cells(const WorkQueue& queue) {
  std::vector<std::size_t> cells;
  for (const auto& members : pending_segments(queue)) {
    cells.insert(cells.end(), members.begin(), members.end());
  }
  std::sort(cells.begin(), cells.end());
  return cells;
}

void publish_cell(const WorkQueue& queue, const ExecutionPlan& plan,
                  std::size_t index, const std::string& worker_id) {
  sweep::TaskResult result;
  result.task = plan.cell(index);
  result.metrics = synthetic_runner().run_one(result.task);
  queue.publish(result, worker_id);
}

std::string read_all(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void write_all(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// ---- segment store lifecycle ----------------------------------------------

TEST(SegmentQueue, SeedPacksSegmentsAndWritesCounters) {
  const auto plan = plan_of(6);  // 12 cells
  WorkQueue queue(scratch_dir("sq_seed"), 60.0);
  queue.seed(plan, /*batch=*/1, /*segment_cells=*/4);
  EXPECT_EQ(read_all(fs::path(queue.dir()) / "plan.bbrplan")
                .rfind("bbrm-queue-layout=3\n", 0),
            0u)
      << "the plan file carries the current layout stamp";

  // 12 cells in 4-cell segments: three pending entries, not twelve.
  std::size_t pending_entries = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queue.dir()) / "pending")) {
    (void)entry;
    ++pending_entries;
  }
  EXPECT_EQ(pending_entries, 3u);
  EXPECT_TRUE(fs::exists(fs::path(queue.dir()) / "counters"));

  const auto counters = queue.counters();
  EXPECT_EQ(counters.total, plan.size());
  EXPECT_EQ(counters.segment_cells, 4u);
  EXPECT_EQ(counters.pending, plan.size());
  EXPECT_EQ(counters.done, 0u);
  EXPECT_EQ(counters.active, 0u);
}

TEST(SegmentQueue, DrainCollectsByteIdenticallyWithFewFiles) {
  const auto plan = plan_of(6);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);

  WorkQueue queue(scratch_dir("sq_drain"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 2;
  const auto report =
      run_worker(queue, plan, worker_options, segment_worker("worker-a"));
  EXPECT_EQ(report.completed, plan.size());

  std::ostringstream csv, json;
  EXPECT_EQ(collect_csv(queue, plan, csv), 0u);
  EXPECT_EQ(collect_json(queue, plan, json), 0u);
  EXPECT_EQ(csv.str(), reference.csv)
      << "segment-store collection must be byte-identical to run_sweep";
  EXPECT_EQ(json.str(), reference.json);

  // The whole drained queue holds O(cells/segment) entries: plan, probe,
  // counters, one result log, one stats file, one publish checkpoint —
  // never a per-cell file.
  EXPECT_LE(count_files(queue.dir()), 8u);
  std::size_t result_logs = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queue.dir()) / "results")) {
    EXPECT_EQ(entry.path().extension(), ".rlog");
    ++result_logs;
  }
  EXPECT_EQ(result_logs, 1u);
}

TEST(SegmentQueue, ConcurrentWorkersSplitSegmentsExactlyOnce) {
  const auto plan = plan_of(25);  // 50 cells
  std::atomic<std::size_t> calls{0};
  sweep::SweepOptions options;
  options.runner = synthetic_runner(&calls);
  const auto reference = reference_bytes(plan, options);
  calls.store(0);

  WorkQueue queue(scratch_dir("sq_trio"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 1;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> workers;
  for (const char* id : {"worker-a", "worker-b", "worker-c"}) {
    workers.emplace_back([&, id] {
      total.fetch_add(
          run_worker(queue, plan, worker_options, segment_worker(id))
              .completed);
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(total.load(), plan.size());
  EXPECT_EQ(calls.load(), plan.size())
      << "every cell simulates exactly once across segment claims";
  std::ostringstream csv;
  collect_csv(queue, plan, csv);
  EXPECT_EQ(csv.str(), reference.csv);
  EXPECT_EQ(queue.done_count(), plan.size());
}

TEST(SegmentQueue, SigkilledWorkerMidSegmentOnlyReEnqueuesUnpublished) {
  const auto plan = plan_of(6);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);

  const std::string dir = scratch_dir("sq_sigkill");
  WorkQueue queue(dir, /*lease_s=*/0.1, /*skew_margin_s=*/0.05);
  queue.seed(plan, 1, /*segment_cells=*/4);

  // A real SIGKILL mid-segment: the child drains slowly and dies after
  // publishing at least one record, so its segment is part published in
  // its result log, part abandoned under the claim.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    try {
      sweep::SweepOptions slow = options;
      slow.threads = 1;
      slow.runner =
          sweep::make_runner("synthetic", [](const sweep::SweepTask& task) {
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
            return synthetic_runner().run_one(task);
          });
      run_worker(queue, plan, slow, segment_worker("victim"));
    } catch (...) {
    }
    ::_exit(0);
  }
  while (queue.done_count() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  const std::size_t done_at_kill = queue.done_count();
  ASSERT_GE(done_at_kill, 1u);
  ASSERT_LT(done_at_kill, plan.size());

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  queue.recover_expired();
  EXPECT_EQ(queue.done_count(), done_at_kill)
      << "published log records must never be re-enqueued";
  EXPECT_EQ(queue.counters().active, 0u);
  EXPECT_EQ(pending_cells(queue).size(), plan.size() - done_at_kill);

  sweep::SweepOptions worker_options = options;
  worker_options.threads = 2;
  run_worker(queue, plan, worker_options, segment_worker("survivor"));
  std::ostringstream csv, json;
  collect_csv(queue, plan, csv);
  collect_json(queue, plan, json);
  EXPECT_EQ(csv.str(), reference.csv)
      << "a SIGKILL mid-segment must not change a byte";
  EXPECT_EQ(json.str(), reference.json);
}

// ---- layout stamp ---------------------------------------------------------

/// Expects `call` to refuse the older queue directory `dir` with the one
/// error that names it and asks for a re-seed.
template <typename Call>
void expect_reseed_error(const std::string& dir, const Call& call,
                         const char* what) {
  try {
    call();
    ADD_FAILURE() << what << " accepted an older queue directory";
  } catch (const PreconditionError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(dir), std::string::npos) << what << ": "
                                                    << message;
    EXPECT_NE(message.find("re-seed into a fresh directory"),
              std::string::npos)
        << what << ": " << message;
  }
}

TEST(SegmentQueue, OlderLayoutDirectoriesAreRefusedWithAReseedError) {
  // A directory seeded by an older bbrsweep may hold per-cell or batch
  // entries this queue would strand, so seeding, loading the plan and the
  // counters view all refuse it with one error that names the directory
  // and asks for a re-seed. Its plan file stays readable.
  const auto plan = plan_of(6);
  const std::string text = plan.serialize();
  for (const std::string stamp : {"", "bbrm-queue-layout=2\n"}) {
    const std::string dir =
        scratch_dir(stamp.empty() ? "sq_old_unstamped" : "sq_old_v2");
    WorkQueue queue(dir, 60.0);
    write_all(fs::path(dir) / "plan.bbrplan", stamp + text);
    expect_reseed_error(dir, [&] { queue.seed(plan); }, "seed");
    expect_reseed_error(dir, [&] { queue.load_plan(); }, "load_plan");
    expect_reseed_error(dir, [&] { queue.counters(); }, "counters");
    EXPECT_FALSE(fs::exists(fs::path(dir) / "counters"))
        << "a refused seed must leave the directory untouched";
    EXPECT_TRUE(pending_segments(queue).empty());
    EXPECT_EQ(ExecutionPlan::parse(strip_layout_stamp(
                                       read_all(fs::path(dir) /
                                                "plan.bbrplan")))
                  .serialize(),
              text)
        << "the plan itself stays reusable (merge --plan)";
  }
}

TEST(SegmentQueue, MixedLayoutReseedIsRejectedBothWays) {
  // A segment re-seed over either older layout (unstamped per-cell, =2
  // batch) is refused before it writes, so every entry the older bbrsweep
  // left stays as it was; over a segment directory it re-seeds fine.
  const auto plan = plan_of(6);
  const std::string text = plan.serialize();
  for (const std::string stamp : {"", "bbrm-queue-layout=2\n"}) {
    const std::string dir =
        scratch_dir(stamp.empty() ? "sq_mix_a" : "sq_mix_b");
    WorkQueue queue(dir, 60.0);
    write_all(fs::path(dir) / "plan.bbrplan", stamp + text);
    const auto legacy_pending = fs::path(dir) / "pending" / "0000000000.cell";
    const auto legacy_result = fs::path(dir) / "results" / "0000000001.cell";
    write_all(legacy_pending, "");
    write_all(legacy_result, "legacy result\n");
    expect_reseed_error(dir, [&] { queue.seed(plan); }, "default re-seed");
    expect_reseed_error(dir, [&] { queue.seed(plan, 1, /*segment_cells=*/4); },
                        "4-cell segment re-seed");
    EXPECT_EQ(read_all(fs::path(dir) / "plan.bbrplan"), stamp + text);
    EXPECT_EQ(read_all(legacy_pending), "");
    EXPECT_EQ(read_all(legacy_result), "legacy result\n");
    EXPECT_FALSE(fs::exists(fs::path(dir) / "counters"));
  }
  WorkQueue queue(scratch_dir("sq_mix_c"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);
  queue.seed(plan, 1, /*segment_cells=*/4);  // same layout re-seeds fine
  std::vector<std::size_t> all(plan.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  EXPECT_EQ(pending_cells(queue), all)
      << "a same-layout re-seed leaves one pending copy of each member";
}

TEST(SegmentQueue, StripLayoutStampReadsPlanFilesOfEveryLayout) {
  const auto plan = plan_of(3);
  const std::string text = plan.serialize();
  WorkQueue queue(scratch_dir("sq_stamp"), 60.0);
  queue.seed(plan);
  const auto current = fs::path(queue.dir()) / "plan.bbrplan";
  const auto older = fs::path(queue.dir()) / "older.bbrplan";
  const auto unstamped = fs::path(queue.dir()) / "unstamped.bbrplan";
  write_all(older, "bbrm-queue-layout=2\n" + text);
  write_all(unstamped, text);
  ASSERT_EQ(read_all(current).rfind("bbrm-queue-layout=3\n", 0), 0u);
  for (const auto& path : {current, older, unstamped}) {
    EXPECT_EQ(strip_layout_stamp(read_all(path)), text) << path;
  }
}

// ---- re-enqueues ----------------------------------------------------------

TEST(SegmentQueue, TrimReleaseAndRecoveryEachRequeueOneSegment) {
  using Segments = std::vector<std::vector<std::size_t>>;
  const auto plan = plan_of(8);  // 16 cells in two 8-cell segments
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);
  const std::vector<std::size_t> tail = {8, 9, 10, 11, 12, 13, 14, 15};
  const auto expire = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
  };
  const auto drain_matches_reference = [&](const WorkQueue& queue) {
    sweep::SweepOptions worker_options = options;
    worker_options.threads = 2;
    run_worker(queue, plan, worker_options, segment_worker("drainer"));
    std::ostringstream csv;
    collect_csv(queue, plan, csv);
    EXPECT_EQ(csv.str(), reference.csv);
  };

  {
    WorkQueue queue(scratch_dir("sq_requeue"), /*lease_s=*/0.05,
                    /*skew_margin_s=*/0.0);
    queue.seed(plan, 1, /*segment_cells=*/8);
    // Trim: the members past `keep` go back as one segment.
    auto claim = queue.try_claim_segment("w-a");
    ASSERT_TRUE(claim.has_value());
    queue.trim(*claim, 3);
    EXPECT_EQ(pending_segments(queue), (Segments{{3, 4, 5, 6, 7}, tail}));
    // Release: the unpublished members go back as one segment.
    publish_cell(queue, plan, 1, "w-a");
    queue.release(*claim);
    EXPECT_EQ(pending_segments(queue),
              (Segments{{0, 2}, {3, 4, 5, 6, 7}, tail}));
    // Recovery: each expired claim's unpublished members go back as one
    // segment.
    ASSERT_TRUE(queue.try_claim_segment("w-b").has_value());  // {0, 2}
    ASSERT_TRUE(queue.try_claim_segment("w-b").has_value());  // {3..7}
    publish_cell(queue, plan, 2, "w-b");
    publish_cell(queue, plan, 4, "w-b");
    expire();
    EXPECT_EQ(queue.recover_expired(), 5u);
    EXPECT_EQ(pending_segments(queue), (Segments{{0}, {3, 5, 6, 7}, tail}));
    drain_matches_reference(queue);
  }

  {
    // A stale claimant's re-enqueue meets a pending segment with the same
    // first cell and as many members: both must survive whole.
    WorkQueue queue(scratch_dir("sq_requeue_meet"), /*lease_s=*/0.05,
                    /*skew_margin_s=*/0.0);
    queue.seed(plan, 1, /*segment_cells=*/8);
    const auto stale = queue.try_claim_segment("w-a");  // {0..7}
    ASSERT_TRUE(stale.has_value());
    expire();
    EXPECT_EQ(queue.recover_expired(), 8u);
    EXPECT_EQ(pending_segments(queue),
              (Segments{{0, 1, 2, 3, 4, 5, 6, 7}, tail}))
        << "an untouched claim returns whole, under its old name";
    auto live = queue.try_claim_segment("w-b");  // {0..7} again
    ASSERT_TRUE(live.has_value());
    queue.trim(*live, 5);
    queue.release(*live);
    EXPECT_EQ(pending_segments(queue),
              (Segments{{0, 1, 2, 3, 4}, {5, 6, 7}, tail}));
    for (const std::size_t index : {1, 6, 7}) {
      publish_cell(queue, plan, index, "w-c");
    }
    queue.release(*stale);  // its unpublished members: {0, 2, 3, 4, 5}
    EXPECT_EQ(pending_segments(queue),
              (Segments{{0, 1, 2, 3, 4}, {0, 2, 3, 4, 5}, {5, 6, 7}, tail}));
    drain_matches_reference(queue);
  }
}

TEST(SegmentQueue, DefaultWorkerClaimsWhole512CellSegmentsWithoutTrimming) {
  const auto plan = plan_of(768);  // 1536 cells: three 512-cell segments
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);
  WorkQueue queue(scratch_dir("sq_default_claims"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/512);

  obs::Counter& claims = obs::Registry::global().counter("queue.claims");
  obs::Counter& cells_claimed =
      obs::Registry::global().counter("queue.cells_claimed");
  const std::uint64_t claims_before = claims.value();
  const std::uint64_t cells_before = cells_claimed.value();
  WorkerConfig config;  // every field but the id at its default
  config.worker_id = "default-w";
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 2;
  const auto report = run_worker(queue, plan, worker_options, config);
  EXPECT_EQ(report.completed, plan.size());
  EXPECT_EQ(claims.value() - claims_before, 3u)
      << "a default worker claims whole segments";
  EXPECT_EQ(cells_claimed.value() - cells_before, plan.size())
      << "no member was trimmed, re-enqueued and claimed again";
  std::ostringstream csv;
  collect_csv(queue, plan, csv);
  EXPECT_EQ(csv.str(), reference.csv);
}

TEST(SegmentQueue, FailedCellsLandPerCellAndReseedRetriesThem) {
  const auto plan = plan_of(6);
  WorkQueue queue(scratch_dir("sq_failed"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);

  // Drain one segment with its first cell failing, the way a worker
  // would: claim, publish per cell, finish.
  auto claim = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(claim.has_value());
  ASSERT_EQ(claim->indices.size(), 4u);
  sweep::TaskResult failed;
  failed.task = plan.cell(claim->indices.front());
  failed.ok = false;
  failed.error = "boom with detail";
  queue.publish(failed, "worker-a");
  for (std::size_t k = 1; k < claim->indices.size(); ++k) {
    sweep::TaskResult result;
    result.task = plan.cell(claim->indices[k]);
    result.metrics = synthetic_runner().run_one(result.task);
    queue.publish(result, "worker-a");
  }
  queue.finish(*claim);

  ASSERT_TRUE(queue.result_ok(0).has_value());
  EXPECT_FALSE(*queue.result_ok(0));
  const auto loaded = queue.load_result(plan.cell(0));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->ok);
  EXPECT_EQ(loaded->error, "boom with detail");
  EXPECT_TRUE(fs::exists(fs::path(queue.dir()) / "failed" / "0000000000.cell"))
      << "failed cells stay per-cell files so a re-seed can drop them";
  EXPECT_EQ(queue.counters().failed, 1u);
  EXPECT_EQ(queue.done_count(), 4u);

  // Re-seeding drops the failure and re-enqueues only that cell for
  // another attempt.
  queue.seed(plan, 1, /*segment_cells=*/4);
  EXPECT_FALSE(queue.result_ok(0).has_value());
  EXPECT_EQ(queue.done_count(), 3u);
  EXPECT_EQ(queue.counters().pending, plan.size() - 3);
  const auto pending = pending_cells(queue);
  EXPECT_EQ(pending.size(), plan.size() - 3);
  EXPECT_EQ(pending.front(), 0u);
}

// ---- result log robustness ------------------------------------------------

TEST(SegmentQueue, TornLogTailIsIgnoredByReadersAndTruncatedByTheWriter) {
  const auto plan = plan_of(6);
  const std::string dir = scratch_dir("sq_torn");
  const std::size_t half = plan.size() / 2;
  {
    WorkQueue queue(dir, 60.0);
    queue.seed(plan, 1, /*segment_cells=*/4);
    for (std::size_t i = 0; i < half; ++i) {
      sweep::TaskResult result;
      result.task = plan.cell(i);
      result.metrics = synthetic_runner().run_one(result.task);
      queue.publish(result, "w1");
    }
  }  // dtor flushes w1's checkpoint

  // A crash mid-append leaves a torn record at the log's tail.
  const auto log = fs::path(dir) / "results" / "w1.rlog";
  const auto sealed_bytes = fs::file_size(log);
  {
    std::ofstream out(log, std::ios::binary | std::ios::app);
    out << "torn tail";
  }

  // A fresh reader must not consume the torn bytes...
  {
    WorkQueue reader(dir, 60.0);
    EXPECT_EQ(reader.done_count(), half);
  }

  // ...and the writer's next attach validates from the checkpoint,
  // truncates the tear, and appends cleanly after it.
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);
  {
    WorkQueue writer(dir, 60.0);
    sweep::TaskResult result;
    result.task = plan.cell(half);
    result.metrics = synthetic_runner().run_one(result.task);
    result.ok = true;
    writer.publish(result, "w1");
    EXPECT_GE(fs::file_size(log), sealed_bytes);
    EXPECT_EQ(writer.done_count(), half + 1);
    for (std::size_t i = half + 1; i < plan.size(); ++i) {
      sweep::TaskResult rest;
      rest.task = plan.cell(i);
      rest.metrics = synthetic_runner().run_one(rest.task);
      writer.publish(rest, "w1");
    }
    std::ostringstream csv;
    collect_csv(writer, plan, csv);
    EXPECT_EQ(csv.str(), reference.csv)
        << "a torn tail must cost at most the unsealed record, never a "
           "published one";
  }
}

TEST(SegmentQueue, CountersAgreeWithTheExactCensusThroughoutADrain) {
  const auto plan = plan_of(6);
  WorkQueue queue(scratch_dir("sq_counters"), 60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);

  for (std::size_t i = 0; i < plan.size(); ++i) {
    sweep::TaskResult result;
    result.task = plan.cell(i);
    result.metrics = synthetic_runner().run_one(result.task);
    queue.publish(result, "w1");
    // The deep-verification invariant `bbrsweep status --deep` enforces:
    // the cheap view never lags the store, and on a clean single-writer
    // drain it is exact.
    const auto counters = queue.counters();
    EXPECT_EQ(counters.done, queue.done_count());
    EXPECT_EQ(counters.total, plan.size());
    EXPECT_EQ(counters.done + counters.pending + counters.active,
              plan.size());
  }
}

// ---- streaming collect memory ---------------------------------------------

/// Discards everything written to it: the collectors' output sink when
/// only their memory behavior is under test.
struct NullBuffer : std::streambuf {
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

std::size_t vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(6)));
    }
  }
  return 0;
}

TEST(SegmentQueue, CollectPeakMemoryStaysFlatFrom1kTo100kCells) {
  // Publish straight into the result logs (no claims — collect only reads
  // results), then measure the peak-RSS delta the 100k-cell collect adds
  // over the 1k one. The collectors decode logs through a bounded window
  // and hold one row at a time, so the delta must stay far under the
  // ~10 MB the 100k result log itself occupies times any buffering
  // factor; a collector that accumulated decoded results would add
  // tens of MB here.
  const auto drain_into_null = [](const ExecutionPlan& plan,
                                  const std::string& dir) {
    WorkQueue queue(dir, 60.0);
    queue.seed(plan, 1, /*segment_cells=*/1024);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      sweep::TaskResult result;
      result.task = plan.cell(i);
      result.metrics = synthetic_runner().run_one(result.task);
      queue.publish(result, "bulk");
    }
    NullBuffer sink;
    std::ostream out(&sink);
    ASSERT_EQ(collect_csv(queue, plan, out), 0u);
  };

  const auto small = plan_of(500);  // 1k cells
  ASSERT_EQ(small.size(), 1000u);
  drain_into_null(small, scratch_dir("sq_rss_1k"));
  const std::size_t hwm_after_small = vm_hwm_kb();
  ASSERT_GT(hwm_after_small, 0u);

  const auto big = plan_of(50000);  // 100k cells
  ASSERT_EQ(big.size(), 100000u);
  {
    const std::string dir = scratch_dir("sq_rss_100k");
    WorkQueue queue(dir, 60.0);
    queue.seed(big, 1, /*segment_cells=*/1024);
    for (std::size_t i = 0; i < big.size(); ++i) {
      sweep::TaskResult result;
      result.task = big.cell(i);
      result.metrics = synthetic_runner().run_one(result.task);
      queue.publish(result, "bulk");
    }
    // Everything above (plan expansion, seed, publishes) is in the
    // baseline; only the collect below may raise the high-water mark.
    const std::size_t hwm_before_collect = vm_hwm_kb();
    NullBuffer sink;
    std::ostream out(&sink);
    ASSERT_EQ(collect_csv(queue, big, out), 0u);
    const std::size_t delta_kb = vm_hwm_kb() - hwm_before_collect;
    EXPECT_LT(delta_kb, 32u * 1024u)
        << "a 100k-cell collect must stream, not buffer, its results";
  }
}

// ---- fleet autoscaling ----------------------------------------------------

TEST(Autoscale, DesiredSizeStepsWithinTheBandOneSlotAtATime) {
  AutoscalePolicy policy;
  policy.min_workers = 1;
  policy.max_workers = 4;
  ScaleInputs inputs;

  // Below the floor always grows toward it, whatever the load says.
  inputs.pending = 0;
  EXPECT_EQ(desired_fleet_size(policy, inputs, 0), 1u);

  // No backlog drains toward the floor one step at a time.
  EXPECT_EQ(desired_fleet_size(policy, inputs, 4), 3u);
  EXPECT_EQ(desired_fleet_size(policy, inputs, 1), 1u);

  // A backlog with no measured rate yet grows (workers warming up must
  // not deadlock the fleet at its floor) — capped at max.
  inputs.pending = 100;
  inputs.cells_per_s = 0.0;
  EXPECT_EQ(desired_fleet_size(policy, inputs, 1), 2u);
  EXPECT_EQ(desired_fleet_size(policy, inputs, 4), 4u);

  // A drain time over the up-threshold grows by exactly one.
  inputs.pending = 1000;
  inputs.cells_per_s = 10.0;  // 100 s backlog > 20 s
  EXPECT_EQ(desired_fleet_size(policy, inputs, 2), 3u);
  EXPECT_EQ(desired_fleet_size(policy, inputs, 4), 4u);

  // Under the down-threshold shrinks by one, floored at min.
  inputs.pending = 10;  // 1 s backlog < 4 s
  EXPECT_EQ(desired_fleet_size(policy, inputs, 3), 2u);
  EXPECT_EQ(desired_fleet_size(policy, inputs, 1), 1u);

  // In the hysteresis band the fleet holds steady.
  inputs.pending = 100;  // 10 s backlog within [4, 20]
  EXPECT_EQ(desired_fleet_size(policy, inputs, 2), 2u);
}

TEST(Autoscale, GatherInputsSumsLiveRatesAndIgnoresDeadWorkers) {
  const auto plan = plan_of(6);
  WorkQueue queue(scratch_dir("sq_gather"), /*lease_s=*/60.0);
  queue.seed(plan, 1, /*segment_cells=*/4);

  // One claimed segment: 4 active cells, 8 pending.
  const auto claim = queue.try_claim_segment("live-w");
  ASSERT_TRUE(claim.has_value());

  WorkerStats live;
  live.worker_id = "live-w";
  live.completed = 4;
  live.cells_per_s = 2.5;  // lifetime average, dragged down by startup
  live.window_cells_per_s = 4.0;  // current throughput
  queue.write_worker_stats(live);
  WorkerStats dead;
  dead.worker_id = "dead-w";
  dead.completed = 1;
  dead.cells_per_s = 100.0;
  dead.window_cells_per_s = 100.0;
  queue.write_worker_stats(dead);
  // Age the dead worker's heartbeat past the lease.
  const auto stats_file =
      fs::path(queue.dir()) / "workers" / "dead-w.stats";
  fs::last_write_time(stats_file, fs::last_write_time(stats_file) -
                                      std::chrono::hours(1));

  const auto inputs = gather_scale_inputs(queue);
  EXPECT_EQ(inputs.active, 4u);
  EXPECT_EQ(inputs.pending, plan.size() - 4);
  EXPECT_DOUBLE_EQ(inputs.cells_per_s, 4.0)
      << "the sliding-window rate (not the lifetime average) sizes the "
         "fleet, and a dead worker's stale rate must not suppress a "
         "scale-up";
}

// ---- fleet ------------------------------------------------------------------

TEST(Fleet, CompleteQueueWithADamagedPlanBodyStillReportsCompletion) {
  // The fleet sizes the plan from the counters file, never from the plan
  // body: a finished queue whose plan.bbrplan is damaged past its header
  // lines must still let it stand down.
  const auto plan = plan_of(6);
  const std::string dir = scratch_dir("sq_fleet_done");
  {
    WorkQueue queue(dir, 60.0);
    queue.seed(plan, 1, /*segment_cells=*/4);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      publish_cell(queue, plan, i, "w1");
    }
  }
  // Keep the stamp and the three header lines; garble every cell after.
  const auto plan_file = fs::path(dir) / "plan.bbrplan";
  std::istringstream lines(read_all(plan_file));
  std::string kept, line;
  for (int k = 0; k < 4 && std::getline(lines, line); ++k) kept += line + "\n";
  write_all(plan_file, kept + "cell=garbage\n");
  EXPECT_ANY_THROW(WorkQueue(dir, 60.0).load_plan())
      << "the plan body really is damaged";

  FleetOptions options;
  options.queue_dir = dir;
  options.workers = 1;
  options.self_path = "/bin/true";
  options.poll_s = 0.01;
  options.quiet = true;
  EXPECT_TRUE(run_fleet(options).completed);
}

}  // namespace
}  // namespace bbrmodel::orchestrator
