// Tests of the orchestrator spine: the ExecutionPlan (single canonical
// cell set behind dense, adaptive, and ad-hoc sweeps; deterministic byte
// serialization) and the durable file-based WorkQueue (atomic-rename
// claims, leases with expiry and heartbeat, crash-safe re-enqueue,
// streaming collection byte-identical to the single-process run).
#include <gtest/gtest.h>

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "adaptive/policy.h"
#include "adaptive/refiner.h"
#include "common/require.h"
#include "common/units.h"
#include "orchestrator/execution_plan.h"
#include "orchestrator/work_queue.h"
#include "scenario/spec_codec.h"
#include "sweep/merge.h"
#include "sweep/workloads.h"

namespace bbrmodel::orchestrator {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const auto dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

/// A fast, deterministic, pure-function-of-the-spec runner (named so it
/// could cache) standing in for an expensive simulation.
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

sweep::ParameterGrid small_grid() {
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kFluid, sweep::Backend::kPacket};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp = {1.0, 2.0, 3.0};
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::half_half_mix(scenario::CcaKind::kBbrv1,
                                     scenario::CcaKind::kReno)};
  return grid;
}

scenario::ExperimentSpec small_base() {
  scenario::ExperimentSpec base;
  base.capacity_pps = mbps_to_pps(20.0);
  base.duration_s = 0.5;
  return base;
}

// ---- ExecutionPlan --------------------------------------------------------

TEST(ExecutionPlan, DenseMatchesGridExpansion) {
  const auto grid = small_grid();
  const auto plan = ExecutionPlan::dense(grid, small_base(), 7, "backend");
  const auto tasks = grid.expand(small_base(), 7);
  ASSERT_EQ(plan.size(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(plan.cell(i).index, tasks[i].index);
    EXPECT_EQ(plan.cell(i).backend, tasks[i].backend);
    EXPECT_EQ(plan.cell(i).spec.seed, tasks[i].spec.seed);
    EXPECT_EQ(plan.cell(i).mix_label, tasks[i].mix_label);
  }
  EXPECT_EQ(plan.runner_name(), "backend");
}

TEST(ExecutionPlan, ExecuteMatchesRunSweepByteForByte) {
  const auto grid = small_grid();
  sweep::SweepOptions options;
  options.runner = synthetic_runner();

  std::ostringstream via_plan, via_run_sweep;
  execute(ExecutionPlan::dense(grid, small_base(), options.base_seed),
          options)
      .write_csv(via_plan);
  sweep::run_sweep(grid, small_base(), options).write_csv(via_run_sweep);
  EXPECT_EQ(via_plan.str(), via_run_sweep.str());
}

TEST(ExecutionPlan, ShardedExecutionMergesByteIdentically) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();

  std::ostringstream full;
  execute(plan, options).write_csv(full);

  std::vector<std::string> shards;
  for (std::size_t k = 0; k < 3; ++k) {
    sweep::SweepOptions sharded = options;
    sharded.shard = {k, 3};
    std::ostringstream out;
    execute(plan, sharded).write_csv(out);
    shards.push_back(out.str());
  }
  EXPECT_EQ(sweep::merge_csv(shards), full.str());
}

TEST(ExecutionPlan, SerializeParsesBackByteIdentically) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42,
                                         "parking-lot");
  const std::string bytes = plan.serialize();
  const auto parsed = ExecutionPlan::parse(bytes);
  EXPECT_EQ(parsed.serialize(), bytes);
  EXPECT_EQ(parsed.runner_name(), "parking-lot");
  ASSERT_EQ(parsed.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(parsed.cell(i).index, plan.cell(i).index);
    EXPECT_EQ(parsed.cell(i).backend, plan.cell(i).backend);
    EXPECT_EQ(parsed.cell(i).mix_label, plan.cell(i).mix_label);
    EXPECT_EQ(scenario::canonical_spec_string(parsed.cell(i).spec),
              scenario::canonical_spec_string(plan.cell(i).spec));
  }
}

TEST(ExecutionPlan, ParseRejectsMalformedDocuments) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  const std::string bytes = plan.serialize();
  EXPECT_THROW(ExecutionPlan::parse("not a plan"), PreconditionError);
  EXPECT_THROW(ExecutionPlan::parse(bytes.substr(0, bytes.size() / 2)),
               PreconditionError);
  EXPECT_THROW(ExecutionPlan::parse(bytes + "trailing junk\n"),
               PreconditionError);
}

TEST(ExecutionPlan, AdHocTasksRequireIncreasingIndices) {
  auto tasks = small_grid().expand(small_base(), 42);
  std::swap(tasks[0], tasks[1]);
  EXPECT_THROW(ExecutionPlan::from_tasks(std::move(tasks)),
               PreconditionError);
}

TEST(ExecutionPlan, UncacheableSpecsCannotSerialize) {
  scenario::ExperimentSpec spec = small_base();
  spec.mix = scenario::homogeneous(scenario::CcaKind::kBbrv2, 2);
  spec.bbr_init = [](std::size_t) { return core::BbrInit{}; };
  const auto plan = ExecutionPlan::from_tasks(
      {sweep::make_task(0, sweep::Backend::kFluid, spec, 42)});
  EXPECT_THROW(plan.serialize(), PreconditionError);
}

TEST(ExecutionPlan, AdaptiveSourceMatchesRunAdaptiveSweep) {
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kReduced};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp = {0.25, 2.0, 4.0, 6.0};
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1)};
  adaptive::RefinementPolicy policy;
  policy.max_depth = 2;

  sweep::SweepOptions options;
  std::ostringstream via_plan, via_adaptive;
  execute(ExecutionPlan::adaptive(grid, small_base(), policy, options),
          options)
      .write_csv(via_plan);
  adaptive::run_adaptive_sweep(grid, small_base(), policy, options)
      .write_csv(via_adaptive);
  EXPECT_EQ(via_plan.str(), via_adaptive.str());
  EXPECT_GT(via_plan.str().size(), 0u);
}

TEST(ExecutionPlan, DescribeCellNamesCoordinatesAndSpecKey) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  const std::string description = plan.describe_cell(1);
  EXPECT_NE(description.find("backend=fluid"), std::string::npos);
  EXPECT_NE(description.find("flows=4"), std::string::npos);
  EXPECT_NE(description.find(
                "spec=" + scenario::canonical_spec_hash(plan.cell(1).spec)),
            std::string::npos);
  EXPECT_THROW(plan.describe_cell(plan.size() + 10), PreconditionError);
}

// ---- merge diagnostics ----------------------------------------------------

TEST(MergeContext, MissingCellsAreNamedWithCoordinates) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  options.shard = {0, 2};
  std::ostringstream shard0;
  execute(plan, options).write_csv(shard0);

  sweep::MergeContext context;
  context.expected_cells = plan.size();
  context.describe = [&](std::size_t i) { return plan.describe_cell(i); };
  try {
    sweep::merge_csv({shard0.str()}, context);
    FAIL() << "an incomplete union must throw";
  } catch (const PreconditionError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("missing 6 of 12 cell(s)"), std::string::npos)
        << message;
    EXPECT_NE(message.find("task 1 (backend="), std::string::npos)
        << message;
    EXPECT_NE(message.find("spec="), std::string::npos) << message;
  }
}

TEST(MergeContext, ExpectedCellsDetectsMissingTail) {
  // Without a plan, a merge can only check contiguity — a missing *tail*
  // shard is invisible. The expected count closes that hole.
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  auto result = execute(plan, options);

  // Drop the last row by serializing a truncated task list.
  auto tasks = plan.cells();
  tasks.pop_back();
  std::ostringstream truncated;
  execute(ExecutionPlan::from_tasks(std::move(tasks)), options)
      .write_csv(truncated);

  EXPECT_NO_THROW(sweep::merge_csv({truncated.str()}))
      << "contiguous-but-short unions pass without an expected count";
  sweep::MergeContext context;
  context.expected_cells = plan.size();
  EXPECT_THROW(sweep::merge_csv({truncated.str()}, context),
               PreconditionError);
}

// ---- WorkQueue ------------------------------------------------------------

/// Every member of every pending segment, sorted with duplicates kept: the
/// directory census that counters() derives its pending count without.
std::vector<std::size_t> pending_cells(const WorkQueue& queue) {
  std::vector<std::size_t> cells;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queue.dir()) / "pending")) {
    std::ifstream in(entry.path());
    std::string line;
    std::getline(in, line);  // the "segment" header
    while (std::getline(in, line)) cells.push_back(std::stoul(line));
  }
  std::sort(cells.begin(), cells.end());
  return cells;
}

/// Publish cell `index`'s synthetic result under `worker_id`.
void publish_cell(const WorkQueue& queue, const ExecutionPlan& plan,
                  std::size_t index, const std::string& worker_id) {
  sweep::TaskResult result;
  result.task = plan.cell_by_index(index);
  result.metrics = synthetic_runner().run_one(result.task);
  queue.publish(result, worker_id);
}

TEST(WorkQueue, SeedClaimCompleteLifecycle) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42,
                                         "synthetic");
  WorkQueue queue(scratch_dir("wq_lifecycle"), /*lease_s=*/60.0);
  EXPECT_FALSE(queue.has_plan());
  queue.seed(plan);
  EXPECT_TRUE(queue.has_plan());
  EXPECT_EQ(queue.load_plan().serialize(), plan.serialize());

  auto counters = queue.counters();
  EXPECT_EQ(counters.pending, plan.size());
  EXPECT_EQ(counters.active, 0u);
  EXPECT_EQ(counters.done, 0u);
  EXPECT_EQ(pending_cells(queue).size(), plan.size());

  // Claims come lowest-index first, and a claimed cell cannot be claimed
  // again — the second worker gets the next one.
  const auto first = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->indices, (std::vector<std::size_t>{0}));
  const auto second = queue.try_claim_segment("worker-b");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->indices, (std::vector<std::size_t>{1}));
  counters = queue.counters();
  EXPECT_EQ(counters.pending, plan.size() - 2);
  EXPECT_EQ(counters.active, 2u);
  EXPECT_EQ(pending_cells(queue).size(), plan.size() - 2);

  // Renewal works while held, and only under the claimant's own name.
  EXPECT_TRUE(queue.renew(*first));
  Claim forged = *first;
  const auto at = forged.active_name.find(".worker-a.");
  ASSERT_NE(at, std::string::npos);
  forged.active_name.replace(at, 10, ".worker-b.");
  EXPECT_FALSE(queue.renew(forged))
      << "a worker cannot renew someone else's lease";

  // Publish + finish records the result and releases the claim.
  sweep::TaskResult result;
  result.task = plan.cell_by_index(0);
  result.metrics = synthetic_runner().run_one(result.task);
  queue.publish(result, "worker-a");
  queue.finish(*first);
  counters = queue.counters();
  EXPECT_EQ(counters.active, 1u);
  EXPECT_EQ(counters.done, 1u);
  EXPECT_EQ(queue.done_count(), 1u);
  EXPECT_FALSE(queue.renew(*first)) << "a finished cell has no lease left";

  const auto loaded = queue.load_result(result.task);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->ok);
  EXPECT_EQ(loaded->metrics.loss_pct, result.metrics.loss_pct);
  EXPECT_EQ(loaded->metrics.mean_rate_pps, result.metrics.mean_rate_pps);
  EXPECT_FALSE(queue.load_result(plan.cell_by_index(2)).has_value())
      << "unfinished cells have no result";
}

TEST(WorkQueue, EmptyQueueClaimsReturnNothing) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_empty"), 60.0);
  EXPECT_FALSE(queue.try_claim_segment("worker-a").has_value())
      << "an unseeded queue has nothing to claim";
  queue.seed(plan);
  std::size_t claimed = 0;
  while (queue.try_claim_segment("worker-a").has_value()) ++claimed;
  EXPECT_EQ(claimed, plan.size());
  EXPECT_FALSE(queue.try_claim_segment("worker-a").has_value());
  EXPECT_EQ(queue.recover_expired(), 0u)
      << "fresh leases must not be recovered";
}

TEST(WorkQueue, FailedCellsRoundTripStatusAndError) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_failed"), 60.0);
  queue.seed(plan);

  sweep::TaskResult failed;
  failed.task = plan.cell(0);
  failed.ok = false;
  failed.error = "boom with detail";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  failed.metrics.jain = failed.metrics.loss_pct = nan;
  queue.publish(failed, "worker-a");

  const auto loaded = queue.load_result(plan.cell(0));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_FALSE(loaded->ok);
  EXPECT_EQ(loaded->error, "boom with detail");
  EXPECT_TRUE(std::isnan(loaded->metrics.jain));
}

TEST(WorkQueue, SeedIsIdempotentAndRejectsDifferentPlans) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_reseed"), 60.0);
  queue.seed(plan);

  // Claim one cell and finish another, then re-seed: neither may be
  // re-enqueued, the rest must stay pending exactly once.
  const auto claimed = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(claimed.has_value());
  const auto finished = queue.try_claim_segment("worker-b");
  ASSERT_TRUE(finished.has_value());
  publish_cell(queue, plan, finished->indices.front(), "worker-b");
  queue.finish(*finished);

  queue.seed(plan);
  const auto counters = queue.counters();
  EXPECT_EQ(counters.pending, plan.size() - 2);
  EXPECT_EQ(counters.active, 1u);
  EXPECT_EQ(counters.done, 1u);
  const auto pending = pending_cells(queue);
  EXPECT_EQ(pending.size(), plan.size() - 2);
  EXPECT_EQ(std::adjacent_find(pending.begin(), pending.end()),
            pending.end())
      << "a re-seed must not enqueue any cell twice";

  const auto other = ExecutionPlan::dense(small_grid(), small_base(), 43);
  EXPECT_THROW(queue.seed(other), PreconditionError)
      << "a different plan must never corrupt an existing queue";
}

TEST(WorkQueue, ExpiredLeaseIsReEnqueuedAndFreshOnesAreNot) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_expiry"), /*lease_s=*/0.05);
  queue.seed(plan);

  // Worker A claims a cell and dies silently (no heartbeat, no result).
  const auto lost = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(queue.recover_expired(), 0u) << "the lease is still fresh";

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(queue.recover_expired(), 1u);
  EXPECT_EQ(queue.counters().active, 0u);
  EXPECT_EQ(pending_cells(queue).size(), plan.size());

  // The recovered cell is claimable again; worker A's late renewal fails.
  const auto reclaimed = queue.try_claim_segment("worker-b");
  ASSERT_TRUE(reclaimed.has_value());
  EXPECT_EQ(reclaimed->indices, lost->indices);
  EXPECT_FALSE(queue.renew(*lost));
}

TEST(WorkQueue, CrashAfterPublishDropsTheStaleClaimWithoutReEnqueue) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_after_publish"), 0.05);
  queue.seed(plan);

  const auto claim = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(claim.has_value());
  // Publish without finishing: worker-a's claim file survives, exactly as
  // if it crashed between publishing and releasing.
  publish_cell(queue, plan, claim->indices.front(), "worker-b");
  EXPECT_EQ(queue.counters().active, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(queue.recover_expired(), 0u)
      << "a published cell must not go back to pending";
  const auto counters = queue.counters();
  EXPECT_EQ(counters.active, 0u) << "the stale claim is dropped";
  EXPECT_EQ(counters.done, 1u);
  EXPECT_EQ(pending_cells(queue).size(), plan.size() - 1);
}

// ---- multi-cell segments + lease robustness -------------------------------

TEST(WorkQueueBatch, BatchedSeedClaimsWholeChunksAsOneUnit) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42,
                                         "synthetic");
  WorkQueue queue(scratch_dir("wq_batch_seed"), 60.0);
  queue.seed(plan, /*batch=*/4);

  // 12 cells chunk into 3 pending segment files, but the counts are cells.
  EXPECT_EQ(queue.counters().pending, plan.size());
  EXPECT_EQ(queue.counters().segment_cells, 4u);
  EXPECT_EQ(pending_cells(queue).size(), plan.size());
  std::size_t entries = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queue.dir()) / "pending")) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 3u);

  // One claim takes the whole lowest segment as one leased unit.
  const auto claim = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(claim.has_value());
  EXPECT_EQ(claim->indices, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(queue.counters().active, 4u);
  EXPECT_TRUE(queue.renew(*claim));

  for (const std::size_t index : claim->indices) {
    sweep::TaskResult result;
    result.task = plan.cell_by_index(index);
    result.metrics = synthetic_runner().run_one(result.task);
    queue.publish(result, "worker-a");
  }
  queue.finish(*claim);
  const auto counters = queue.counters();
  EXPECT_EQ(counters.done, 4u);
  EXPECT_EQ(counters.active, 0u);
  EXPECT_FALSE(queue.renew(*claim)) << "a finished segment has no lease";
}

TEST(WorkQueueBatch, TrimAndReleaseReturnOnlyTheUnpublishedTail) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_batch_trim"), 60.0);
  queue.seed(plan, /*batch=*/3);

  auto claim = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(claim.has_value());
  EXPECT_EQ(claim->indices, (std::vector<std::size_t>{0, 1, 2}));
  // The three cells sit under exactly one leased claim file.
  std::size_t active_entries = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(queue.dir()) / "active")) {
    (void)entry;
    ++active_entries;
  }
  EXPECT_EQ(active_entries, 1u);
  EXPECT_EQ(queue.counters().active, 3u);

  // Trimming hands the tail back as claimable pending work.
  queue.trim(*claim, 2);
  EXPECT_EQ(claim->indices, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(queue.counters().active, 2u);
  EXPECT_EQ(queue.counters().pending, plan.size() - 2);
  EXPECT_EQ(pending_cells(queue).size(), plan.size() - 2);

  // Releasing the claim re-enqueues only the unpublished member.
  publish_cell(queue, plan, 0, "worker-a");
  queue.release(*claim);
  const auto counters = queue.counters();
  EXPECT_EQ(counters.done, 1u);
  EXPECT_EQ(counters.active, 0u);
  EXPECT_EQ(counters.pending, plan.size() - 1);
  const auto pending = pending_cells(queue);
  EXPECT_EQ(pending.size(), plan.size() - 1);
  EXPECT_EQ(pending.front(), 1u);
}

TEST(WorkQueueBatch, ExpiredBatchReEnqueuesOnlyUnfinishedMembers) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_batch_expiry"), /*lease_s=*/0.05,
                  /*skew_margin_s=*/0.0);
  queue.seed(plan, /*batch=*/4);

  const auto claim = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(claim.has_value());
  ASSERT_EQ(claim->indices.size(), 4u);
  for (const std::size_t index : {claim->indices[0], claim->indices[1]}) {
    publish_cell(queue, plan, index, "worker-a");
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(queue.recover_expired(), 2u)
      << "published members stay done; only the unfinished re-enqueue";
  const auto counters = queue.counters();
  EXPECT_EQ(counters.done, 2u);
  EXPECT_EQ(counters.active, 0u);
  EXPECT_EQ(counters.pending, plan.size() - 2);
  EXPECT_EQ(pending_cells(queue).size(), plan.size() - 2);
  EXPECT_FALSE(queue.renew(*claim));
}

TEST(WorkQueue, SkewMarginDelaysLeaseExpiry) {
  // The same active files, two recovery policies: a margin of lease/4
  // would have been blown by the sleep, so the wide margin must hold the
  // lease while the zero margin recovers it.
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  const std::string dir = scratch_dir("wq_skew");
  WorkQueue with_margin(dir, /*lease_s=*/0.05, /*skew_margin_s=*/10.0);
  WorkQueue no_margin(dir, /*lease_s=*/0.05, /*skew_margin_s=*/0.0);
  EXPECT_EQ(with_margin.skew_margin_s(), 10.0);
  EXPECT_EQ(no_margin.skew_margin_s(), 0.0);

  with_margin.seed(plan);
  ASSERT_TRUE(with_margin.try_claim_segment("worker-a").has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(with_margin.recover_expired(), 0u)
      << "a lease inside the skew margin must not be stolen";
  EXPECT_EQ(no_margin.recover_expired(), 1u);

  // The default margin derives from the lease.
  WorkQueue defaulted(scratch_dir("wq_skew_default"), 60.0);
  EXPECT_EQ(defaulted.skew_margin_s(), 15.0);
}

TEST(WorkQueue, FailedResultsAreReEnqueuedOnReseed) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_retry_failed"), 60.0);
  queue.seed(plan);

  // Cell 0 fails (a timeout, say); cell 1 succeeds.
  const auto failed_claim = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(failed_claim.has_value());
  const std::size_t failed_cell = failed_claim->indices.front();
  sweep::TaskResult failed;
  failed.task = plan.cell_by_index(failed_cell);
  failed.ok = false;
  failed.error = "timeout after 1 s";
  queue.publish(failed, "worker-a");
  queue.finish(*failed_claim);
  const auto ok_claim = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(ok_claim.has_value());
  const std::size_t ok_cell = ok_claim->indices.front();
  publish_cell(queue, plan, ok_cell, "worker-a");
  queue.finish(*ok_claim);
  EXPECT_EQ(queue.counters().done, 2u);
  EXPECT_EQ(queue.done_count(), 2u);

  // Re-seeding (a coordinator restart) must re-attempt the transient
  // failure instead of serving the memoized NaN row forever — and must
  // not touch the finished cell.
  queue.seed(plan);
  const auto counters = queue.counters();
  EXPECT_EQ(counters.done, 1u);
  EXPECT_EQ(counters.pending, plan.size() - 1);
  EXPECT_EQ(pending_cells(queue).size(), plan.size() - 1);
  EXPECT_FALSE(queue.result_ok(failed_cell).has_value())
      << "the failed result file must be dropped";
  EXPECT_EQ(queue.result_ok(ok_cell), std::optional<bool>(true));
}

TEST(WorkQueue, PeerClaimedBacklogEntriesAreSkippedIndividually) {
  // Two queue handles on one directory model two worker processes with
  // independently cached claim backlogs. A peer's claim leaves a stale
  // entry in ours; the failed rename must drop just that entry — and a
  // release must come back as a claimable candidate without a relist.
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  const std::string dir = scratch_dir("wq_stale_backlog");
  WorkQueue ours(dir, 60.0);
  WorkQueue peer(dir, 60.0);
  ours.seed(plan);

  const auto cell = [](const std::optional<Claim>& claim) {
    return claim ? std::optional<std::size_t>(claim->indices.front())
                 : std::nullopt;
  };
  EXPECT_EQ(cell(ours.try_claim_segment("worker-a")),
            std::optional<std::size_t>(0));
  const auto peer_claim = peer.try_claim_segment("worker-b");
  EXPECT_EQ(cell(peer_claim), std::optional<std::size_t>(1));
  // Our backlog still lists cell 1; the stale entry is skipped and the
  // next-lowest cell claimed.
  EXPECT_EQ(cell(ours.try_claim_segment("worker-a")),
            std::optional<std::size_t>(2));

  // The peer's release surfaces the cell to its own backlog in sorted
  // position: the very next claim takes it, lowest-index first.
  ASSERT_TRUE(peer_claim.has_value());
  peer.release(*peer_claim);
  EXPECT_EQ(cell(peer.try_claim_segment("worker-b")),
            std::optional<std::size_t>(1));
}

TEST(WorkQueue, WorkerStatsRoundTripThroughTheQueueDir) {
  WorkQueue queue(scratch_dir("wq_stats"), 60.0);
  WorkerStats stats;
  stats.worker_id = "w-1";
  stats.completed = 7;
  stats.failed = 2;
  stats.in_flight = 3;
  stats.elapsed_s = 2.0;
  stats.cells_per_s = 3.5;
  queue.write_worker_stats(stats);
  WorkerStats other = stats;
  other.worker_id = "w-2";
  other.completed = 11;
  queue.write_worker_stats(other);

  const auto all = queue.read_worker_stats();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].worker_id, "w-1");
  EXPECT_EQ(all[0].completed, 7u);
  EXPECT_EQ(all[0].failed, 2u);
  EXPECT_EQ(all[0].in_flight, 3u);
  EXPECT_EQ(all[0].cells_per_s, 3.5);
  EXPECT_GE(all[0].heartbeat_age_s, 0.0);
  EXPECT_LT(all[0].heartbeat_age_s, 30.0);
  EXPECT_EQ(all[1].worker_id, "w-2");
  EXPECT_EQ(all[1].completed, 11u);
}

// ---- run_worker + streaming collection ------------------------------------

/// The reference bytes every queue-driven run must reproduce.
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

/// Worker shorthand: default claims (one whole segment), fast polls.
WorkerConfig worker_config(const std::string& id, std::size_t max_cells = 0,
                           double poll_s = 0.01) {
  WorkerConfig config;
  config.worker_id = id;
  config.max_cells = max_cells;
  config.poll_s = poll_s;
  return config;
}

TEST(RunWorker, DrainsTheQueueAndCollectsByteIdentically) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);

  WorkQueue queue(scratch_dir("wq_drain"), 60.0);
  queue.seed(plan);
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 1;
  const auto report =
      run_worker(queue, plan, worker_options, worker_config("worker-a"));
  EXPECT_EQ(report.completed, plan.size());
  EXPECT_EQ(report.failed, 0u);

  std::ostringstream csv, json;
  EXPECT_EQ(collect_csv(queue, plan, csv), 0u);
  EXPECT_EQ(collect_json(queue, plan, json), 0u);
  EXPECT_EQ(csv.str(), reference.csv)
      << "queue-driven CSV must be byte-identical to the in-process run";
  EXPECT_EQ(json.str(), reference.json);
}

TEST(RunWorker, DeadWorkerMidCellIsRecoveredAndOutputStaysByteIdentical) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  const auto reference = reference_bytes(plan, options);

  // A generous lease (no timing games): the dead worker's claim is
  // expired deterministically by backdating its heartbeat mtime below.
  WorkQueue queue(scratch_dir("wq_dead_worker"), /*lease_s=*/60.0);
  queue.seed(plan);

  // Worker A claims a cell and dies mid-simulation: no heartbeat, no
  // result, its claim file left behind. Backdate the claim file far past
  // the lease so recovery triggers on the next scan — a short lease plus
  // a real sleep here was flaky, because under load worker B's own
  // heartbeats could also fall behind a 50 ms lease.
  const auto abandoned = queue.try_claim_segment("worker-a");
  ASSERT_TRUE(abandoned.has_value());
  std::size_t backdated = 0;
  for (const auto& entry : fs::directory_iterator(fs::path(queue.dir()) / "active")) {
    if (entry.path().filename().string().find(".worker-a.") ==
        std::string::npos) {
      continue;
    }
    fs::last_write_time(entry.path(),
                        fs::last_write_time(entry.path()) -
                            std::chrono::duration_cast<
                                fs::file_time_type::duration>(
                                std::chrono::seconds(600)));
    ++backdated;
  }
  ASSERT_EQ(backdated, 1u);

  // A surviving worker drains the whole plan, re-enqueueing the expired
  // cell along the way.
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 2;
  const auto report =
      run_worker(queue, plan, worker_options, worker_config("worker-b"));
  EXPECT_EQ(report.completed, plan.size());

  std::ostringstream csv, json;
  collect_csv(queue, plan, csv);
  collect_json(queue, plan, json);
  EXPECT_EQ(csv.str(), reference.csv)
      << "a crash + re-enqueue must not change a byte";
  EXPECT_EQ(json.str(), reference.json);
}

TEST(RunWorker, ConcurrentWorkersSplitTheCellsExactlyOnce) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  std::atomic<std::size_t> calls{0};
  sweep::SweepOptions options;
  options.runner = synthetic_runner(&calls);
  const auto reference = reference_bytes(plan, options);
  calls.store(0);

  WorkQueue queue(scratch_dir("wq_concurrent"), 60.0);
  queue.seed(plan);
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 1;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> workers;
  for (const char* id : {"worker-a", "worker-b", "worker-c"}) {
    workers.emplace_back([&, id] {
      total.fetch_add(
          run_worker(queue, plan, worker_options, worker_config(id)).completed);
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(total.load(), plan.size());
  EXPECT_EQ(calls.load(), plan.size())
      << "every cell simulates exactly once across all workers";
  std::ostringstream csv;
  collect_csv(queue, plan, csv);
  EXPECT_EQ(csv.str(), reference.csv);
}

TEST(RunWorker, MaxCellsStopsEarly) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_maxcells"), 60.0);
  queue.seed(plan);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  options.threads = 1;
  const auto report =
      run_worker(queue, plan, options, worker_config("worker-a", /*max_cells=*/3));
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(queue.done_count(), 3u);
}

TEST(RunWorker, MaxCellsIsExactUnderConcurrentClaimLoops) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_maxcells_mt"), 60.0);
  queue.seed(plan);
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  options.threads = 4;  // the cap is a shared budget, not per-loop
  const auto report =
      run_worker(queue, plan, options, worker_config("worker-a", /*max_cells=*/3));
  EXPECT_EQ(report.completed, 3u)
      << "concurrent claim loops must not overshoot --max-cells";
  EXPECT_EQ(queue.done_count(), 3u);
  EXPECT_EQ(queue.counters().active, 0u);
  EXPECT_EQ(pending_cells(queue).size(), plan.size() - 3)
      << "claims the budget could not cover go back to pending";
}

TEST(RunWorker, ClaimLoopErrorsSurfaceInsteadOfTerminating) {
  // A queue seeded with cells the plan does not know (a reused dir, a
  // stray file) must fail with the loud lookup error on the caller's
  // thread, not std::terminate inside a worker thread.
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_bad_cell"), 60.0);
  queue.seed(plan);

  std::ofstream(fs::path(queue.dir()) / "pending" /
                "0000000999.1.0000000000000000.seg")
      << "segment\n999\n";

  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  options.threads = 2;
  EXPECT_THROW(run_worker(queue, plan, options, worker_config("worker-a")),
               PreconditionError)
      << "claiming a cell the plan cannot resolve must propagate";
}

TEST(Collect, IncompleteQueueThrowsNamingTheMissingCell) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  WorkQueue queue(scratch_dir("wq_incomplete"), 60.0);
  queue.seed(plan);
  std::ostringstream out;
  EXPECT_THROW(collect_csv(queue, plan, out), PreconditionError);
}

// ---- batched run_worker ----------------------------------------------------

/// A 50-cell plan: enough cells that three workers on 4-cell segments
/// interleave claims and the final ragged segment.
ExecutionPlan fifty_cell_plan() {
  sweep::ParameterGrid grid;
  grid.backends = {sweep::Backend::kFluid};
  grid.disciplines = {net::Discipline::kDropTail};
  grid.buffers_bdp.clear();
  for (int i = 0; i < 25; ++i) {
    grid.buffers_bdp.push_back(0.5 * (i + 1));
  }
  grid.flow_counts = {4};
  grid.rtt_ranges = {{0.030, 0.040}};
  grid.mixes = {sweep::homogeneous_mix(scenario::CcaKind::kBbrv1),
                sweep::half_half_mix(scenario::CcaKind::kBbrv1,
                                     scenario::CcaKind::kReno)};
  return ExecutionPlan::dense(grid, small_base(), 42);
}

TEST(RunWorker, ThreeBatchedWorkersDrainFiftyCellsExactlyOnce) {
  const auto plan = fifty_cell_plan();
  ASSERT_EQ(plan.size(), 50u);
  std::atomic<std::size_t> calls{0};
  sweep::SweepOptions options;
  options.runner = synthetic_runner(&calls);
  const auto reference = reference_bytes(plan, options);
  calls.store(0);

  WorkQueue queue(scratch_dir("wq_batched_trio"), 60.0);
  queue.seed(plan, /*batch=*/4);
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 1;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> workers;
  for (const char* id : {"worker-a", "worker-b", "worker-c"}) {
    workers.emplace_back([&, id] {
      WorkerConfig config;
      config.worker_id = id;
      config.poll_s = 0.01;
      config.stats = true;
      total.fetch_add(
          run_worker(queue, plan, worker_options, config).completed);
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(total.load(), plan.size());
  EXPECT_EQ(calls.load(), plan.size())
      << "every cell simulates exactly once across the segment claims";
  std::ostringstream csv, json;
  collect_csv(queue, plan, csv);
  collect_json(queue, plan, json);
  EXPECT_EQ(csv.str(), reference.csv)
      << "segment claims must not change a byte of the merged output";
  EXPECT_EQ(json.str(), reference.json);

  // Every worker left a stats file the status view can aggregate.
  const auto stats = queue.read_worker_stats();
  ASSERT_EQ(stats.size(), 3u);
  std::size_t stats_total = 0;
  for (const auto& s : stats) stats_total += s.completed;
  EXPECT_EQ(stats_total, plan.size());
}

TEST(RunWorker, BatchedMaxCellsStaysExact) {
  const auto plan = fifty_cell_plan();
  WorkQueue queue(scratch_dir("wq_batched_budget"), 60.0);
  queue.seed(plan, /*batch=*/8);  // segments coarser than the budget
  sweep::SweepOptions options;
  options.runner = synthetic_runner();
  options.threads = 4;
  WorkerConfig config;
  config.worker_id = "worker-a";
  config.max_cells = 6;  // not a multiple of the segment size
  config.poll_s = 0.01;
  const auto report = run_worker(queue, plan, options, config);
  EXPECT_EQ(report.completed, 6u)
      << "oversized segment claims must be trimmed back to the budget";
  EXPECT_EQ(queue.done_count(), 6u);
  EXPECT_EQ(queue.counters().active, 0u);
  EXPECT_EQ(pending_cells(queue).size(), plan.size() - 6);
}

TEST(RunWorker, SigkilledWorkerMidBatchOnlyReEnqueuesUnfinishedCells) {
  const auto plan = ExecutionPlan::dense(small_grid(), small_base(), 42);
  std::atomic<std::size_t> calls{0};
  sweep::SweepOptions options;
  options.runner = synthetic_runner(&calls);
  const auto reference = reference_bytes(plan, options);

  const std::string dir = scratch_dir("wq_sigkill_batch");
  WorkQueue queue(dir, /*lease_s=*/0.1, /*skew_margin_s=*/0.05);
  queue.seed(plan, /*batch=*/4);

  // A real SIGKILL mid-segment: the child drains slowly with 4-cell
  // claims and is killed after publishing at least one cell, so its
  // segment is part published, part abandoned.
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
      WorkerConfig config;
      config.worker_id = "victim";
      config.poll_s = 0.01;
      run_worker(queue, plan, slow, config);
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

  // After the lease (+ margin) runs out, recovery re-enqueues exactly the
  // unpublished cells — the published ones stay done.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  queue.recover_expired();
  EXPECT_EQ(queue.done_count(), done_at_kill)
      << "published cells must never be re-enqueued";
  EXPECT_EQ(queue.counters().active, 0u);
  EXPECT_EQ(pending_cells(queue).size(), plan.size() - done_at_kill);

  // A surviving worker finishes the plan; the merged output is
  // byte-identical to the single-process run.
  WorkerConfig survivor;
  survivor.worker_id = "survivor";
  survivor.poll_s = 0.01;
  sweep::SweepOptions worker_options = options;
  worker_options.threads = 2;
  run_worker(queue, plan, worker_options, survivor);
  std::ostringstream csv, json;
  collect_csv(queue, plan, csv);
  collect_json(queue, plan, json);
  EXPECT_EQ(csv.str(), reference.csv)
      << "a SIGKILL mid-segment must not change a byte";
  EXPECT_EQ(json.str(), reference.json);
}

}  // namespace
}  // namespace bbrmodel::orchestrator
