// Durable, file-based work queue: any number of worker processes on any
// machines drain one ExecutionPlan cooperatively.
//
// The queue is a directory on a filesystem the participants share (local
// disk for multi-process runs, NFS/EFS-style mounts for multi-machine
// ones — rename atomicity and reasonably coherent mtimes are the only
// requirements):
//
//   <dir>/plan.bbrplan            "bbrm-queue-layout=3", then the
//                                 serialized ExecutionPlan
//   <dir>/counters                total/segment size, written once at seed
//                                 (O(1) status)
//   <dir>/pending/<first>.<K>.<digest>.seg           an unclaimed segment
//                                 of K cells (members listed inside; first
//                                 member, count and a digest of the member
//                                 list in the name)
//   <dir>/active/<first>.<K>.<digest>.<worker>.seg   a claimed segment
//                                 (one lease for all its members)
//   <dir>/results/<worker>.rlog   one append-only binary log of finished
//                                 cells per worker (framed records,
//                                 hash-sealed tails)
//   <dir>/failed/<index>.cell     a *failed* cell (rare; kept per-cell so
//                                 re-seeding can drop it)
//   <dir>/workers/<id>.pub        per-worker publish checkpoint (records +
//                                 log bytes covered) — an accelerator, not
//                                 an authority: readers tail-scan each log
//                                 past its checkpoint
//   <dir>/workers/<id>.stats      per-worker progress (heartbeat mtime)
//   <dir>/probe                   mtime reference for lease expiry
//
// The K-cell segment is the queue's only unit of work. The seed chunks the
// plan into segments of a fixed size (K = 1 is the per-cell case: the name
// carries the one member, so claiming it reads nothing), a worker claims a
// whole segment by one rename, and results publish per cell into the
// worker's log, so a crash mid-segment only re-enqueues the unpublished
// members — as one new segment. The filesystem holds O(cells/K) entries
// however big the plan, and `bbrsweep status` stays O(1) through the
// counters file plus the per-worker checkpoints. Directories seeded under
// an older layout (unstamped, or stamped =2) may hold per-cell entries this
// code would strand; seeding, loading the plan and counters() refuse them
// with a "re-seed into a fresh directory" error.
//
// Mutual exclusion comes from rename(2): a worker claims a pending segment
// by renaming it into active/ under the worker's name — the filesystem
// guarantees exactly one renamer wins, and the loser simply moves on. One
// rename per segment is what lets fast runners (the closed-form reduced
// theory) drain large plans without the queue itself becoming the
// bottleneck. A segment's name is a function of its member list, so two
// re-enqueues that meet under one name always write identical bytes: an
// overwrite can never drop a member of either.
//
// A lease is the active file's mtime plus the queue's lease duration.
// Workers heartbeat by *writing* a byte back into their active files (not
// by setting an explicit timestamp), so on a network mount the mtime
// comes from the filesystem's own clock. Expiry likewise never consults
// this host's wall clock: recovery touches the queue's probe file the
// same way and compares mtime deltas against lease + a skew margin
// (default lease/4), so cross-host clock skew cannot expire a healthy
// worker's lease. Anyone (worker or coordinator) may re-enqueue an
// expired entry — that is the whole crash story. A worker that lost its
// lease but finishes anyway publishes bytes identical to the re-run
// (runners are deterministic), so every race here is benign: readers keep
// the first record of a cell, and double completion only appends the same
// bytes again.
//
// Results stream out one cell at a time — a worker holds at most its
// in-flight cells in memory, and the collector emits the final CSV/JSON
// row by row through the same emitters a single-process SweepResult uses,
// so the merged output is byte-identical to `run_sweep` by construction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "orchestrator/execution_plan.h"

namespace bbrmodel::orchestrator {

/// The queue's one progress view, O(1) in the plan size: totals from the
/// seed-time counters file, done from the per-worker publish checkpoints
/// (plus a bounded tail scan of each log past its checkpoint), active from
/// the in-flight claim names, pending derived. `done` counts published
/// records, so a benign double-completion (a lease steal where both
/// workers finish) can transiently overcount — completion decisions use
/// the exact done_count(), displays use this.
struct QueueCounters {
  std::size_t total = 0;    ///< plan size (0 before a seed)
  std::size_t done = 0;     ///< published cells (records + failed files)
  std::size_t failed = 0;   ///< of done, cells whose task failed
  std::size_t active = 0;   ///< cells covered by live claims
  std::size_t pending = 0;  ///< total - done - active (clamped at 0)
  std::size_t segment_cells = 0;  ///< seed-time segment size
};

/// One claimed segment. The member indices are ascending; `active_name`
/// is the claim file under active/ that carries the segment's lease.
struct Claim {
  std::vector<std::size_t> indices;
  std::string active_name;
};

/// One worker's progress snapshot, written to workers/<id>.stats on every
/// heartbeat tick and read back by `bbrsweep status` / the coordinator's
/// watch line. The stats file's mtime is the worker's last heartbeat;
/// `heartbeat_age_s` is filled on read, probe-relative (skew-safe).
struct WorkerStats {
  std::string worker_id;
  std::size_t completed = 0;   ///< cells this worker published
  std::size_t failed = 0;      ///< of those, cells whose task failed
  std::size_t in_flight = 0;   ///< cells currently claimed by this worker
  double elapsed_s = 0.0;      ///< run_worker wall clock so far
  double cells_per_s = 0.0;    ///< completed / elapsed (lifetime average)
  /// Throughput over the trailing RateWindow (current rate, the one the
  /// dashboard and autoscaler should trust). Falls back to the lifetime
  /// average when reading stats files written before this field existed.
  double window_cells_per_s = 0.0;
  double heartbeat_age_s = 0.0;  ///< seconds since the last stats write
};

/// Trailing-window throughput estimator behind WorkerStats'
/// `window_cells_per_s`. A lifetime average (`completed / elapsed`)
/// underreports a worker that idled through a long startup or backlog
/// gap and overreports one that just stalled — `gather_scale_inputs`
/// sizing a fleet off it reacts minutes late. sample() records the
/// cumulative completed count at elapsed time `t_s`; rate() differences
/// the newest sample against the oldest retained one. One sample older
/// than `window_s` is kept as the anchor, so the estimate always spans
/// the full window once enough history exists (and degrades gracefully
/// to the lifetime average before that).
class RateWindow {
 public:
  explicit RateWindow(double window_s = 30.0);

  /// Record cumulative `completed` at monotonically nondecreasing `t_s`.
  void sample(double t_s, std::size_t completed);

  /// Cells/s over the retained span; 0 before time has advanced.
  double rate() const;

 private:
  double window_s_;
  std::vector<std::pair<double, std::size_t>> samples_;
};

class WorkQueue {
 public:
  /// Attach to a queue directory (created on demand). `lease_s` is how
  /// long a claimed entry may go without a heartbeat before any
  /// participant may re-enqueue it; it bounds the recovery latency after
  /// a worker crash. `skew_margin_s` is the extra slack recovery grants
  /// on top of the lease before declaring it expired, absorbing cross-host
  /// clock skew in the mtimes participants stamp; negative picks the
  /// default of lease/4.
  explicit WorkQueue(std::string dir, double lease_s = 60.0,
                     double skew_margin_s = -1.0);

  /// Flushes publish checkpoints and closes cached log handles. The
  /// destructor never throws; a checkpoint that cannot be written is
  /// recovered by the next reader's tail scan.
  ~WorkQueue();
  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  const std::string& dir() const { return dir_; }
  double lease_s() const { return lease_s_; }
  double skew_margin_s() const { return skew_margin_s_; }

  /// Coordinator: publish the plan, the counters file and this queue's
  /// lease parameters, then enqueue every cell that is not already
  /// claimed or finished, chunked into segments claimable by one rename
  /// each. Cells whose stored result is *failed* are re-enqueued (the
  /// failed file is dropped): a transient failure must be re-attempted on
  /// the next run, never served forever. Idempotent — re-seeding after a
  /// coordinator crash resumes the run; seeding a *different* plan into a
  /// non-empty queue throws (byte-compared against the stored plan), and
  /// a directory seeded under an older layout is refused with a re-seed
  /// error.
  ///
  /// Both size arguments name the segment size: `segment_cells` when it
  /// is nonzero, else `batch` (the older spelling, still accepted).
  void seed(const ExecutionPlan& plan, std::size_t batch = 1,
            std::size_t segment_cells = 0) const;

  bool has_plan() const;
  /// The stored plan; refuses a directory seeded under an older layout.
  ExecutionPlan load_plan() const;

  /// The lease duration / skew margin the seeding coordinator recorded in
  /// `dir`, if any. Workers adopt them unless explicitly overridden —
  /// mismatched per-process leases would let one participant steal
  /// another's live claims (benign for correctness, wasteful for
  /// compute).
  static std::optional<double> stored_lease_s(const std::string& dir);
  static std::optional<double> stored_skew_margin_s(const std::string& dir);

  /// Worker: claim the lowest pending segment, whole, by one atomic
  /// rename — a single leased unit with one heartbeat file, however many
  /// cells it holds. nullopt when nothing is pending (work may still be
  /// active elsewhere). `worker_id` must be filesystem-safe
  /// ([A-Za-z0-9_-]).
  std::optional<Claim> try_claim_segment(const std::string& worker_id) const;

  /// Give the tail of a claim back to the queue: members past `keep` are
  /// re-enqueued as one pending segment and the claim's manifest shrinks
  /// to the kept members (the owning worker is baked into the claim).
  /// Needed when a segment exceeds a worker's remaining --max-cells
  /// budget.
  void trim(Claim& claim, std::size_t keep) const;

  /// Heartbeat a claim (one touch regardless of segment size). Returns
  /// false when the lease is no longer held (expired and re-enqueued or
  /// reclaimed) — the computation may finish anyway; publishing a result
  /// twice is benign.
  bool renew(const Claim& claim) const;

  /// Publish one finished cell without touching the claim, so a crash
  /// mid-segment loses only the unpublished members: one framed,
  /// hash-sealed append to `worker_id`'s result log (failed cells go to
  /// per-cell files under failed/ so a re-seed can drop and retry them);
  /// the no-worker overload logs under this process's default worker id.
  void publish(const sweep::TaskResult& result) const;
  void publish(const sweep::TaskResult& result,
               const std::string& worker_id) const;

  /// Drop a claim whose members were all published.
  void finish(const Claim& claim) const;

  /// Release a claim without finishing it — a worker abandoning work it
  /// knows it cannot finish, so peers need not wait out the lease.
  /// Members without a published result go back to pending as one
  /// segment, published ones are left done, and the claim file is
  /// dropped.
  void release(const Claim& claim) const;

  /// Number of *distinct* finished cells — the completion check worker
  /// loops poll with. Backed by the incremental result index (each log
  /// byte is read once per process, then only growth), exact even under
  /// benign double completion.
  std::size_t done_count() const;

  /// The O(1) status view (see QueueCounters): reads the counters file,
  /// the workers/ checkpoints (+ bounded log tails), and the in-flight
  /// claim names — never pending/ or the result logs in full. All zero
  /// before a seed; refuses a directory seeded under an older layout.
  QueueCounters counters() const;

  /// Re-enqueue every active entry whose lease expired (probe-relative
  /// mtime delta > lease + skew margin): its unpublished members go back
  /// to pending as one segment, and a claim whose members were all
  /// published is simply dropped. Returns how many cells went back to
  /// pending.
  std::size_t recover_expired() const;

  /// Read one finished cell back, joining the stored status/metrics with
  /// the plan's task coordinates: one record read from its worker's log,
  /// else the failed-cell file. The result index is refreshed (one
  /// results/ readdir, one stat per log) only when it lacks the cell, so
  /// a collect over a finished queue lists results/ once, not per cell,
  /// and a cell published since the last refresh is still found. nullopt
  /// when the cell has no result yet or its bytes are damaged.
  std::optional<sweep::TaskResult> load_result(
      const sweep::SweepTask& task) const;

  /// Status-only peek at a result: true = ok, false = failed, nullopt =
  /// absent/damaged. An index lookup (refreshed only on a miss, as in
  /// load_result) or the failed file's status line, never the metrics —
  /// the cheap half of collect_json's totals pre-pass.
  std::optional<bool> result_ok(std::size_t index) const;

  /// Atomically (re)write this worker's stats file; its mtime doubles as
  /// the worker's heartbeat for `bbrsweep status`.
  void write_worker_stats(const WorkerStats& stats) const;

  /// Every worker stats file in the queue, sorted by worker id, with
  /// heartbeat ages measured against the probe file (skew-safe).
  std::vector<WorkerStats> read_worker_stats() const;

  /// One worker's stats file — a single open, no probe write and no
  /// heartbeat age (left 0). nullopt when the worker never reported.
  std::optional<WorkerStats> read_worker_stats(
      const std::string& worker_id) const;

  /// Drop one worker's stats file (no-op when absent). The fleet calls
  /// this before each (re)spawn so a generation's `completed` count can
  /// only come from the generation that just ran.
  void remove_worker_stats(const std::string& worker_id) const;

  /// Atomically (re)write workers/<id>.metrics — a pre-rendered
  /// obs::render_metrics snapshot shipped home through the shared queue
  /// directory for `bbrsweep status --metrics` / `--json`.
  void write_worker_metrics(const std::string& worker_id,
                            const std::string& rendered) const;

  /// Every (worker id, metrics file text) pair, sorted by worker id.
  std::vector<std::pair<std::string, std::string>> read_worker_metrics()
      const;

 private:
  std::string pending_dir() const;
  std::string active_dir() const;
  std::string results_dir() const;
  std::string failed_dir() const;
  std::string workers_dir() const;
  std::string plan_path() const;
  std::string counters_path() const;
  std::string probe_path() const;
  std::string failed_path(std::size_t index) const;
  std::string log_path(const std::string& worker_id) const;
  std::string checkpoint_path(const std::string& worker_id) const;
  /// Re-stamp the probe file by writing it and return its fresh mtime —
  /// "now" according to the queue filesystem's own clock. Rate-limited:
  /// within lease/4 of the last write the cached mtime is advanced by
  /// locally elapsed time instead, so watch loops polling every tick do
  /// not write the shared mount every tick.
  std::optional<std::filesystem::file_time_type> probe_now() const;
  /// Put re-enqueued pending names back into the cached claim backlog at
  /// their sorted positions, so peers see them without a full relist.
  void backlog_insert(std::vector<std::string> names) const;
  /// Refuse a directory whose plan file carries another layout's stamp
  /// (or none). Reads the stamp once per handle; passes before a seed.
  void check_plan_stamp() const;
  /// Write `members` (ascending, non-empty) as one pending segment and
  /// return its file name.
  std::string enqueue_segment(const std::vector<std::size_t>& members) const;
  /// Return the unpublished members of the active entry `active_name`
  /// (whose members are `members`) to pending as one segment, then drop
  /// the entry; the re-enqueued name is appended to `requeued`. Returns
  /// how many cells went back.
  std::size_t requeue(const std::string& active_name,
                      const std::vector<std::size_t>& members,
                      const std::vector<std::size_t>& unpublished,
                      std::vector<std::string>& requeued) const;

  /// One record of a worker's result log, located for on-demand reads.
  struct ResultLoc {
    std::uint32_t log = 0;       ///< index into logs_
    std::uint8_t ok = 1;         ///< the record's ok flag
    std::uint64_t offset = 0;    ///< record start within the log
  };
  /// Reader-side state of one results/<worker>.rlog.
  struct LogState {
    std::string name;            ///< file name under results/
    std::uint64_t consumed = 0;  ///< bytes parsed into the index so far
    std::FILE* read = nullptr;   ///< cached pread handle for collect
  };
  /// Writer-side state of one worker's log in this process.
  struct PubState {
    std::FILE* append = nullptr;
    std::uint64_t records = 0;   ///< records the log holds (checkpointed)
    std::uint64_t bytes = 0;     ///< log size covered by `records`
    std::uint64_t unflushed = 0; ///< records since the last .pub rewrite
  };
  /// Pull every log's new bytes into the result index (one stat per log,
  /// growth read once). Caller must hold result_mutex_.
  void refresh_result_index_locked() const;
  /// The index entry of `index`, refreshing the index only on a miss (a
  /// hit never changes). nullptr when no log holds the cell. Caller must
  /// hold result_mutex_.
  const ResultLoc* find_result_locked(std::size_t index) const;
  /// Has `index` a published result? Refreshes the index into
  /// `result_lock` on first use (refresh-once-per-sweep for callers
  /// probing many members), then answers from the index plus one
  /// failed-file stat.
  bool result_published(
      std::size_t index,
      std::optional<std::unique_lock<std::mutex>>& result_lock) const;
  /// This process's append handle for `worker_id`'s log, opened (and the
  /// log's tail validated/truncated from the checkpoint) on first use.
  /// Caller must hold publish_mutex_.
  PubState& open_publisher_locked(const std::string& worker_id) const;
  /// Rewrite one worker's .pub checkpoint from its PubState.
  void write_checkpoint_locked(const std::string& worker_id,
                               PubState& pub) const;
  /// Flush every dirty publish checkpoint (at exit).
  void flush_published() const;
  /// The set of failed-cell indices (one readdir of failed/, O(failures)).
  std::vector<std::size_t> list_failed() const;

  std::string dir_;
  double lease_s_;
  double skew_margin_s_;
  /// Claim candidates cached from the last pending-directory listing
  /// (reverse-sorted; pop from the back = lowest index first). One
  /// listing amortizes over many claims, so draining N cells costs one
  /// readdir per backlog refill instead of one per cell. A stale entry
  /// (claimed by a peer since the listing) just fails its rename and is
  /// dropped *individually* — never by clearing the whole backlog, which
  /// would force O(n) relists under contention.
  mutable std::mutex claim_mutex_;
  mutable std::vector<std::string> claim_backlog_;
  /// probe_now()'s rate-limit state: the last written probe mtime and
  /// when (locally) it was written.
  mutable std::mutex probe_mutex_;
  mutable std::optional<std::filesystem::file_time_type> probe_value_;
  mutable std::chrono::steady_clock::time_point probe_at_{};
  /// Set once the plan file's stamp was found current (a directory may be
  /// seeded after attach, so a missing plan leaves it unset).
  mutable std::atomic<bool> stamp_checked_{false};
  /// Reader side: the incremental result index. Each
  /// log's bytes are read once per process; a refresh is one stat per log
  /// plus whatever grew. Torn tail records (a crash mid-append) stay
  /// unconsumed until they complete or the log is truncated by its
  /// writer's restart.
  mutable std::mutex result_mutex_;
  mutable std::vector<LogState> logs_;
  mutable std::unordered_map<std::string, std::uint32_t> log_ids_;
  mutable std::unordered_map<std::size_t, ResultLoc> result_index_;
  /// Writer side: per-worker append handles + checkpoint accumulators for
  /// this process.
  mutable std::mutex publish_mutex_;
  mutable std::map<std::string, PubState> publishers_;
};

/// Replace every byte outside [A-Za-z0-9_-] with '-': the one charset
/// worker ids may use (they become queue file names). Shared by the CLI
/// and the fleet so the rules cannot drift apart.
std::string sanitize_worker_id(std::string id);

/// Filesystem-safe default worker identity: <hostname>-<pid>.
std::string default_worker_id();

/// A queue's plan.bbrplan bytes with its layout stamp line dropped, when
/// it has one — any layout's stamp, or none. This is how plan files are
/// read outside a live queue (`merge --plan`, the status header), so a
/// plan pulled out of a directory too old to drain still parses.
std::string strip_layout_stamp(std::string plan_file);

/// What one run_worker call accomplished.
struct WorkerReport {
  std::size_t completed = 0;  ///< cells this worker published
  std::size_t failed = 0;     ///< of those, cells whose task failed
};

/// How one run_worker call behaves (identity, budget, cadence). A claim
/// is always one whole seeded segment: the coordinator's segment size is
/// the only chunking knob.
struct WorkerConfig {
  /// Claim-file identity ([A-Za-z0-9_-]); required.
  std::string worker_id;
  /// Publish at most this many cells, then return (0 = no limit). Exact
  /// under concurrent claim loops: a segment bigger than the remaining
  /// budget is trimmed back to it.
  std::size_t max_cells = 0;
  /// Sleep between empty claim attempts.
  double poll_s = 0.05;
  /// Unused: no library code reads it; claims take whole segments. It
  /// stays only because perfbench/ still assigns it, and ROADMAP item 4(a)
  /// deletes it.
  std::size_t batch = 0;
  /// Unused: no library code reads it; a worker runs and publishes the
  /// cells of a segment one at a time. It stays only because perfbench/
  /// still assigns it, and ROADMAP item 4(a) deletes it.
  std::size_t batch_cells = 1;
  /// Write workers/<id>.stats on every heartbeat tick (live dashboards).
  bool stats = false;
  /// Also snapshot the global obs::Registry to workers/<id>.metrics on
  /// each stats write (requires `stats`).
  bool metrics = false;
};

/// Drain the queue until its plan is complete (or the cell budget is
/// spent): claim a segment, run each of its cells through sweep::run_cell
/// (caching, timeout and retry per `options`; options.threads claim loops
/// run concurrently) and publish it, repeat. The runner is
/// options.runner, else the plan's named runner, else backend_runner(). A
/// background heartbeat renews every in-flight lease at lease/4 cadence.
/// Returns when every cell of the plan has a result, however many workers
/// produced them.
WorkerReport run_worker(const WorkQueue& queue, const ExecutionPlan& plan,
                        const sweep::SweepOptions& options,
                        const WorkerConfig& config);

/// Streaming collection: emit the completed plan's CSV/JSON one cell at a
/// time, byte-identical to the single-process run_sweep output (shared
/// row emitters; nothing is buffered beyond one row). Throws when a cell
/// has no result. Returns the number of failed cells.
std::size_t collect_csv(const WorkQueue& queue, const ExecutionPlan& plan,
                        std::ostream& out);
std::size_t collect_json(const WorkQueue& queue, const ExecutionPlan& plan,
                         std::ostream& out);

}  // namespace bbrmodel::orchestrator
