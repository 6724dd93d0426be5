#include "orchestrator/work_queue.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "common/atomic_io.h"
#include "common/csv.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/parse.h"
#include "common/require.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sweep/cell_cache.h"
#include "sweep/thread_pool.h"
#include "sweep/workloads.h"

namespace bbrmodel::orchestrator {

namespace fs = std::filesystem;

namespace {

/// Cell indices in file names are zero-padded so lexicographic directory
/// order is numeric order — claims go lowest-index first without parsing.
std::string index_name(std::size_t index) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%010zu", index);
  return buffer;
}

/// The numeric prefix of a queue file name ("0000000042.cell").
std::optional<std::size_t> parse_index_name(const std::string& name) {
  const auto dot = name.find('.');
  if (dot == std::string::npos || dot == 0) return std::nullopt;
  const auto v = try_parse_u64(name.substr(0, dot));
  if (!v) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

bool has_extension(const std::string& name, const char* ext) {
  const std::string suffix = ext;
  return name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

void require_worker_id(const std::string& worker_id) {
  BBRM_REQUIRE_MSG(!worker_id.empty(), "worker id must be non-empty");
  for (char c : worker_id) {
    BBRM_REQUIRE_MSG(
        std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-',
        "worker ids must match [A-Za-z0-9_-] (they become file names): '" +
            worker_id + "'");
  }
}

/// Update a file's mtime by rewriting its first byte in place. Unlike
/// setting an explicit timestamp, the write is stamped by the filesystem's
/// own clock — on a network mount that is the one clock every participant
/// shares, which is what makes lease expiry immune to cross-host skew.
/// kMissing (the file is gone — the claim was lost) must be told apart
/// from kFailed (a transient EMFILE/EIO with the file still present):
/// only the former means someone else owns the work now.
enum class Touch { kOk, kMissing, kFailed };

Touch touch_by_write(const std::string& path) {
  // bbrlint:allow(atomic-io-required: in-place one-byte rewrite is the
  // mtime heartbeat touch — content never changes, so no reader can see a
  // torn file, and a rename would break the lease's inode identity)
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    return errno == ENOENT ? Touch::kMissing : Touch::kFailed;
  }
  char first = 0;
  bool ok = std::fread(&first, 1, 1, file) == 1;
  ok = ok && std::fseek(file, 0, SEEK_SET) == 0;
  ok = ok && std::fwrite(&first, 1, 1, file) == 1;
  ok = (std::fclose(file) == 0) && ok;
  return ok ? Touch::kOk : Touch::kFailed;
}

constexpr const char* kSegmentHeader = "segment";
constexpr const char* kSegmentExt = ".seg";

/// The on-disk payload of a segment entry: "segment\n" then one ascending
/// member index per line. Shared by pending segments and active claims.
std::string encode_segment(const std::vector<std::size_t>& members) {
  std::string out = kSegmentHeader;
  out += '\n';
  for (const std::size_t index : members) {
    out += std::to_string(index);
    out += '\n';
  }
  return out;
}

/// nullopt on any damage, members out of order included — a segment whose
/// members cannot be recovered must be loud at the call sites that need
/// them, never silently empty.
std::optional<std::vector<std::size_t>> decode_segment(
    const std::string& bytes) {
  std::istringstream in(bytes);
  std::string line;
  if (!std::getline(in, line) || line != kSegmentHeader) return std::nullopt;
  std::vector<std::size_t> members;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto v = try_parse_u64(line);
    if (!v || (!members.empty() && *v <= members.back())) return std::nullopt;
    members.push_back(static_cast<std::size_t>(*v));
  }
  if (members.empty()) return std::nullopt;
  return members;
}

/// "<first>.<count>.<digest>": a segment's name without claimant or
/// extension. The first member keeps lexicographic order numeric, the
/// count lets counters() total cells from names alone, and the digest of
/// the payload makes the name a function of the member list — two
/// re-enqueues that meet under one name write identical bytes, so an
/// overwrite can never drop a member of either.
std::string segment_stem(const std::vector<std::size_t>& members,
                         const std::string& payload) {
  return index_name(members.front()) + "." + std::to_string(members.size()) +
         "." + hex64(fnv1a64(payload));
}

/// A segment entry's file name taken apart: "<stem>.seg" pending,
/// "<stem>.<worker>.seg" active.
struct SegmentName {
  std::size_t first = 0;
  std::size_t count = 0;
  std::string stem;
  std::string worker;  ///< the claimant; empty for a pending entry
};

std::optional<SegmentName> parse_segment_name(const std::string& name) {
  if (!has_extension(name, kSegmentExt)) return std::nullopt;
  const std::string body =
      name.substr(0, name.size() - std::string(kSegmentExt).size());
  const auto a = body.find('.');
  const auto b = a == std::string::npos ? a : body.find('.', a + 1);
  if (b == std::string::npos) return std::nullopt;
  const auto c = body.find('.', b + 1);
  const auto first = try_parse_u64(body.substr(0, a));
  const auto count = try_parse_u64(body.substr(a + 1, b - a - 1));
  if (!first || !count || *count == 0 || b + 1 == body.size() ||
      c == b + 1 || c + 1 == body.size()) {
    return std::nullopt;
  }
  SegmentName out;
  out.first = static_cast<std::size_t>(*first);
  out.count = static_cast<std::size_t>(*count);
  out.stem = body.substr(0, c);
  if (c != std::string::npos) out.worker = body.substr(c + 1);
  return out;
}

/// The members of the segment entry at `path` — from its name alone for a
/// one-cell segment, else read from the file. nullopt when the file
/// vanished (a peer claimed, finished, or recovered it between a directory
/// listing and this read; a benign race the caller skips). Bytes that
/// exist but disagree with the name are loud: a silently ignored damaged
/// segment would strand its cells in no state at all.
std::optional<std::vector<std::size_t>> segment_members(
    const std::string& path, const SegmentName& name) {
  if (name.count == 1) return std::vector<std::size_t>{name.first};
  const auto bytes = read_text_file(path);
  if (!bytes) return std::nullopt;
  auto members = decode_segment(*bytes);
  BBRM_REQUIRE_MSG(members.has_value() && members->size() == name.count &&
                       members->front() == name.first,
                   "queue segment file " + path +
                       " is damaged; its cells cannot be recovered "
                       "without it");
  return members;
}

using Fields = std::map<std::string, std::string, std::less<>>;

/// A key=value text file (publish checkpoint, counters, worker stats):
/// one entry per line with a non-empty key, the last line of a key wins.
/// nullopt when the file is absent.
std::optional<Fields> read_fields(const std::string& path) {
  const auto bytes = read_text_file(path);
  if (!bytes) return std::nullopt;
  Fields fields;
  std::istringstream in(*bytes);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    fields[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return fields;
}

/// One field as an integer: nullopt when absent or not a number.
std::optional<std::uint64_t> u64_field(const Fields& fields,
                                       std::string_view key) {
  const auto it = fields.find(key);
  if (it == fields.end()) return std::nullopt;
  return try_parse_u64(it->second);
}

/// One field as a double: 0 when absent or not a number.
double double_field(const Fields& fields, std::string_view key) {
  const auto it = fields.find(key);
  if (it == fields.end()) return 0.0;
  return try_parse_double(it->second).value_or(0.0);
}

/// The layout stamp: the first line of plan.bbrplan. Layout 3 is this
/// segment-only queue. An unstamped plan (layout 1: per-cell entries and
/// result files) or a "=2" one (per-cell and batch entries beside
/// segments) may sit beside entries this code would strand, so such
/// directories are refused rather than drained.
constexpr std::string_view kStampPrefix = "bbrm-queue-layout=";
constexpr std::string_view kLayoutStamp = "bbrm-queue-layout=3\n";

/// Throws the one re-seed error unless `plan_file` (the whole file or a
/// prefix of it) starts with the current stamp.
void require_current_stamp(const std::string& dir,
                          const std::string& plan_file) {
  if (plan_file.rfind(kLayoutStamp, 0) == 0) return;
  std::string found = "unstamped";
  if (plan_file.rfind(kStampPrefix, 0) == 0) {
    const std::size_t eq = kStampPrefix.size() - 1;
    found = "stamped " + plan_file.substr(eq, plan_file.find('\n') - eq);
  }
  throw PreconditionError(
      "queue directory " + dir + " was seeded by another bbrsweep version "
      "(plan " + found + ") and may hold entries this one would strand; "
      "re-seed into a fresh directory (its plan.bbrplan still works with "
      "`bbrsweep merge --plan`)");
}

/// Result-log record framing. One record is
///
///   u32 magic  u32 error_len  u32 payload_len  u32 flags(bit0=ok)
///   u64 index  error bytes  payload bytes  u64 fnv1a64
///
/// all little-endian, hashed over everything after the magic — a crash
/// mid-append leaves a torn tail that fails the hash (or the length) and
/// is simply not consumed: the claim was never finished, so the cell
/// re-enqueues and the record is re-appended. The payload is the same
/// exact-number CSV encode_cell_metrics emits for failed-cell files and
/// the cell cache, so every store decodes through one codec.
constexpr std::uint32_t kLogMagic = 0x32515242u;  // "BQR2"
constexpr std::size_t kLogHeaderBytes = 24;
constexpr std::uint32_t kMaxLogField = 16u << 20;
/// Rewrite the publish checkpoint after this many unflushed records: the
/// checkpoint is an accelerator for O(1) status, so the only cost of
/// staleness is a slightly longer tail scan, never a wrong count.
constexpr std::uint64_t kCheckpointEvery = 256;

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t get_u64(const char* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

std::string encode_log_record(std::size_t index, bool ok,
                              const std::string& error,
                              const std::string& payload) {
  std::string out;
  out.reserve(kLogHeaderBytes + error.size() + payload.size() + 8);
  put_u32(out, kLogMagic);
  put_u32(out, static_cast<std::uint32_t>(error.size()));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, ok ? 1u : 0u);
  put_u64(out, static_cast<std::uint64_t>(index));
  out += error;
  out += payload;
  put_u64(out, fnv1a64_bytes(out.data() + 4, out.size() - 4));
  return out;
}

/// One decoded record; `error` and `payload` view the caller's bytes.
struct LogRecord {
  std::size_t index = 0;
  bool ok = true;
  std::string_view error;
  std::string_view payload;
};

/// Decode one record from the front of `data`. nullopt = incomplete or
/// damaged bytes (a torn tail); the caller stops consuming there. The
/// second member is the record's total length.
std::optional<std::pair<LogRecord, std::size_t>> decode_log_record(
    const char* data, std::size_t size) {
  if (size < kLogHeaderBytes + 8) return std::nullopt;
  if (get_u32(data) != kLogMagic) return std::nullopt;
  const std::uint32_t error_len = get_u32(data + 4);
  const std::uint32_t payload_len = get_u32(data + 8);
  const std::uint32_t flags = get_u32(data + 12);
  if (error_len > kMaxLogField || payload_len > kMaxLogField) {
    return std::nullopt;
  }
  const std::size_t total = kLogHeaderBytes + error_len + payload_len + 8;
  if (size < total) return std::nullopt;
  const std::uint64_t hash =
      fnv1a64_bytes(data + 4, kLogHeaderBytes - 4 + error_len + payload_len);
  if (hash != get_u64(data + total - 8)) return std::nullopt;
  LogRecord record;
  record.index = static_cast<std::size_t>(get_u64(data + 16));
  record.ok = (flags & 1u) != 0;
  record.error = std::string_view(data + kLogHeaderBytes, error_len);
  record.payload =
      std::string_view(data + kLogHeaderBytes + error_len, payload_len);
  return std::make_pair(record, total);
}

/// Count the valid records of a log from byte `from` on. `valid_end` is
/// where the last complete record ends — the writer truncates torn bytes
/// past it before re-appending, readers just stop there. Used by the
/// cheap counters path (tails past checkpoints are bounded by
/// kCheckpointEvery records) and by writer reopen.
struct LogScan {
  std::uint64_t records = 0;
  std::uint64_t valid_end = 0;
};

LogScan scan_log_records(const std::string& path, std::uint64_t from) {
  LogScan scan;
  scan.valid_end = from;
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec || size <= from) return scan;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return scan;
  std::string bytes;
  if (std::fseek(file, static_cast<long>(from), SEEK_SET) == 0) {
    bytes.resize(static_cast<std::size_t>(size - from));
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), file));
  }
  std::fclose(file);
  std::size_t off = 0;
  while (auto record = decode_log_record(bytes.data() + off,
                                         bytes.size() - off)) {
    ++scan.records;
    off += record->second;
  }
  scan.valid_end = from + off;
  return scan;
}

/// workers/<id>.pub: "records=N\nbytes=B\n". Advisory — a reader always
/// tail-scans the log past `bytes`, so a missing or stale checkpoint only
/// costs read time.
std::optional<std::pair<std::uint64_t, std::uint64_t>> read_checkpoint(
    const std::string& path) {
  const auto fields = read_fields(path);
  if (!fields) return std::nullopt;
  const auto records = u64_field(*fields, "records");
  const auto covered = u64_field(*fields, "bytes");
  if (!records || !covered) return std::nullopt;
  return std::make_pair(*records, *covered);
}

/// <dir>/counters: the seed-time totals that make status O(1) —
/// "format=2\ntotal=N\nsegment-cells=K\n".
struct StoredCounters {
  std::size_t total = 0;
  std::size_t segment_cells = 0;
};

std::optional<StoredCounters> read_stored_counters(const std::string& path) {
  const auto fields = read_fields(path);
  if (!fields) return std::nullopt;
  const auto total = u64_field(*fields, "total");
  if (!total) return std::nullopt;
  StoredCounters counters;
  counters.total = static_cast<std::size_t>(*total);
  counters.segment_cells = static_cast<std::size_t>(
      u64_field(*fields, "segment-cells").value_or(0));
  return counters;
}

/// The text body of a failed-cell file: status and error lines, then the
/// shared metrics codec.
std::string encode_result_file(const sweep::TaskResult& result) {
  std::string bytes = "status=";
  bytes += result.ok ? "ok" : "failed";
  bytes += "\nerror=";
  bytes += result.error;  // single-line by the engine's contract
  bytes += '\n';
  bytes += sweep::encode_cell_metrics(result.metrics);
  return bytes;
}

/// Parse a failed-cell file back into a TaskResult. nullopt when the file
/// is absent or damaged.
std::optional<sweep::TaskResult> load_result_file(
    const std::string& path, const sweep::SweepTask& task) {
  const auto bytes = read_text_file(path);
  if (!bytes) return std::nullopt;
  std::string_view rest = *bytes;
  const auto field = [&rest](std::string_view key)
      -> std::optional<std::string_view> {
    const auto newline = rest.find('\n');
    if (newline == std::string_view::npos ||
        rest.substr(0, key.size()) != key) {
      return std::nullopt;
    }
    const std::string_view value =
        rest.substr(key.size(), newline - key.size());
    rest.remove_prefix(newline + 1);
    return value;
  };
  const auto status = field("status=");
  const auto error = status ? field("error=") : std::nullopt;
  if (!error) return std::nullopt;
  auto metrics = sweep::decode_cell_metrics(rest);
  if (!metrics) return std::nullopt;

  sweep::TaskResult result;
  result.task = task;
  result.metrics = std::move(*metrics);
  result.ok = *status == "ok";
  result.error = std::string(*error);
  return result;
}

/// Status-only peek at a failed-cell file.
std::optional<bool> result_file_ok(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string status;
  if (!std::getline(in, status) || status.rfind("status=", 0) != 0) {
    return std::nullopt;
  }
  return status.substr(7) == "ok";
}

/// The first `limit` bytes of a file (enough for a layout stamp) — never
/// the whole document.
std::optional<std::string> read_file_prefix(const std::string& path,
                                            std::size_t limit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string bytes(limit, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(limit));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

}  // namespace

std::string sanitize_worker_id(std::string id) {
  for (char& c : id) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
        c != '_') {
      c = '-';
    }
  }
  return id;
}

std::string default_worker_id() {
  char host[64] = "host";
  ::gethostname(host, sizeof host - 1);
  host[sizeof host - 1] = '\0';
  return sanitize_worker_id(std::string(host) + "-" +
                            std::to_string(::getpid()));
}

std::string strip_layout_stamp(std::string plan_file) {
  if (plan_file.rfind(kStampPrefix, 0) == 0) {
    const auto eol = plan_file.find('\n');
    plan_file.erase(0, eol == std::string::npos ? plan_file.size() : eol + 1);
  }
  return plan_file;
}

WorkQueue::WorkQueue(std::string dir, double lease_s, double skew_margin_s)
    : dir_(std::move(dir)),
      lease_s_(lease_s),
      skew_margin_s_(skew_margin_s < 0.0 ? lease_s / 4.0 : skew_margin_s) {
  BBRM_REQUIRE_MSG(!dir_.empty(), "queue directory must be non-empty");
  BBRM_REQUIRE_MSG(std::isfinite(lease_s_) && lease_s_ > 0.0,
                   "lease must be positive and finite");
  // NaN slips past every < comparison and would turn lease + margin into
  // NaN, making recovery steal every healthy lease; inf would disable
  // recovery entirely.
  BBRM_REQUIRE_MSG(std::isfinite(skew_margin_s_),
                   "skew margin must be finite");
  // Best-effort creation: observers (`bbrsweep status` on a read-only
  // replica) must be able to attach; writers hit the real error on their
  // first write, with the path in the message.
  std::error_code ec;
  fs::create_directories(pending_dir(), ec);
  fs::create_directories(active_dir(), ec);
  fs::create_directories(results_dir(), ec);
  fs::create_directories(workers_dir(), ec);
  fs::create_directories(failed_dir(), ec);
}

WorkQueue::~WorkQueue() {
  // Flush publish checkpoints and close the cached log handles. Never
  // throws: a checkpoint that cannot be written is advisory, and the log
  // bytes themselves were flushed at every publish.
  try {
    flush_published();
  } catch (...) {
  }
  {
    std::lock_guard<std::mutex> lock(publish_mutex_);
    for (auto& [worker, pub] : publishers_) {
      if (pub.append != nullptr) std::fclose(pub.append);
      pub.append = nullptr;
    }
  }
  std::lock_guard<std::mutex> lock(result_mutex_);
  for (auto& log : logs_) {
    if (log.read != nullptr) std::fclose(log.read);
    log.read = nullptr;
  }
}

std::string WorkQueue::pending_dir() const {
  return (fs::path(dir_) / "pending").string();
}
std::string WorkQueue::active_dir() const {
  return (fs::path(dir_) / "active").string();
}
std::string WorkQueue::results_dir() const {
  return (fs::path(dir_) / "results").string();
}
std::string WorkQueue::workers_dir() const {
  return (fs::path(dir_) / "workers").string();
}
std::string WorkQueue::plan_path() const {
  return (fs::path(dir_) / "plan.bbrplan").string();
}
std::string WorkQueue::probe_path() const {
  return (fs::path(dir_) / "probe").string();
}
std::string WorkQueue::failed_dir() const {
  return (fs::path(dir_) / "failed").string();
}
std::string WorkQueue::counters_path() const {
  return (fs::path(dir_) / "counters").string();
}
std::string WorkQueue::failed_path(std::size_t index) const {
  return (fs::path(failed_dir()) / (index_name(index) + ".cell")).string();
}
std::string WorkQueue::log_path(const std::string& worker_id) const {
  return (fs::path(results_dir()) / (worker_id + ".rlog")).string();
}
std::string WorkQueue::checkpoint_path(const std::string& worker_id) const {
  return (fs::path(workers_dir()) / (worker_id + ".pub")).string();
}

void WorkQueue::check_plan_stamp() const {
  if (stamp_checked_.load()) return;
  // 64 bytes hold any stamp line; a million-cell plan is never read here.
  const auto prefix = read_file_prefix(plan_path(), 64);
  if (!prefix) return;  // nothing seeded yet: the seed that lands decides
  require_current_stamp(dir_, *prefix);
  stamp_checked_.store(true);
}

std::optional<fs::file_time_type> WorkQueue::probe_now() const {
  // Rate limit: within lease/4 of the last probe write, extrapolate the
  // cached mtime by locally elapsed time instead of writing again — a
  // coordinator watch loop and N polling workers must not turn "now" into
  // continuous write traffic on the shared mount. The extrapolation error
  // is only the clocks' *rate* drift over that window (microseconds, not
  // the cross-host offset the skew margin exists for), so expiry math is
  // unaffected even with --skew-margin 0.
  const auto steady = std::chrono::steady_clock::now();
  const double window_s = std::max(0.01, lease_s_ / 4.0);
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    if (probe_value_ &&
        std::chrono::duration<double>(steady - probe_at_).count() <
            window_s) {
      return *probe_value_ +
             std::chrono::duration_cast<fs::file_time_type::duration>(
                 steady - probe_at_);
    }
  }
  // Any successful write re-stamps the mtime; concurrent probers all write
  // "now" within their own write latency, so the race is harmless.
  {
    // bbrlint:allow(atomic-io-required: the probe file exists only for its
    // filesystem mtime — no reader ever parses its content)
    std::ofstream out(probe_path(), std::ios::trunc);
    out << "probe\n";
    if (!out) return std::nullopt;
  }
  std::error_code ec;
  const auto t = fs::last_write_time(probe_path(), ec);
  if (ec) return std::nullopt;
  {
    std::lock_guard<std::mutex> lock(probe_mutex_);
    probe_value_ = t;
    probe_at_ = steady;
  }
  return t;
}

void WorkQueue::seed(const ExecutionPlan& plan, std::size_t batch,
                     std::size_t segment_cells) const {
  const std::size_t chunk = segment_cells > 0 ? segment_cells : batch;
  BBRM_REQUIRE_MSG(chunk >= 1, "segment size must be at least 1");
  std::string bytes = plan.serialize();
  bytes.insert(0, kLayoutStamp);
  const bool stored = fs::exists(plan_path());
  if (stored) {
    const std::string previous = read_text_file(plan_path()).value_or("");
    require_current_stamp(dir_, previous);
    BBRM_REQUIRE_MSG(previous == bytes,
                     "queue directory " + dir_ +
                         " already holds a different plan; seeding would "
                         "corrupt it (use a fresh directory)");
  }
  // Seed-time totals for O(1) status: `bbrsweep status`, the coordinator
  // watch line and the fleet read this one file plus the publish
  // checkpoints, never a readdir of pending/ or results/. Written before
  // the plan, so whoever sees a plan also finds its counters.
  write_file_atomically(counters_path(),
                        "format=3\ntotal=" + std::to_string(plan.size()) +
                            "\nsegment-cells=" + std::to_string(chunk) +
                            "\n",
                        "queue counters");
  if (!stored) write_file_atomically(plan_path(), bytes, "queue plan");
  stamp_checked_.store(true);
  // Record the lease parameters so workers can adopt them instead of
  // guessing — a participant with a shorter lease than the heartbeat
  // cadence of the others would keep stealing live claims.
  write_file_atomically((fs::path(dir_) / "lease").string(),
                        exact_number(lease_s_) + "\n" +
                            exact_number(skew_margin_s_) + "\n",
                        "queue lease");

  // Resume-aware enqueue: skip cells that are already pending or being
  // worked on (an entry covers every member it lists). One scan of each
  // state dir beats N existence probes.
  std::set<std::size_t> unavailable;
  for (const std::string& state : {pending_dir(), active_dir()}) {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(state, ec)) {
      if (!entry.is_regular_file()) continue;
      const auto name = parse_segment_name(entry.path().filename().string());
      if (!name) continue;
      // A segment a peer claims or finishes mid-scan reads as absent; its
      // members re-enqueue at worst as benign duplicates (deterministic
      // runners republish identical bytes).
      const auto members = segment_members(entry.path().string(), *name);
      if (!members) continue;
      unavailable.insert(members->begin(), members->end());
    }
  }

  // One index refresh and one failed/ listing answer "published?" for
  // every cell — no per-cell filesystem probes on resume.
  std::vector<std::size_t> todo;
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    refresh_result_index_locked();
    std::set<std::size_t> failed_cells;
    for (const std::size_t index : list_failed()) {
      failed_cells.insert(index);
    }
    for (const auto& cell : plan.cells()) {
      if (unavailable.count(cell.index) != 0) continue;
      if (result_index_.count(cell.index) != 0) continue;  // done ok
      if (failed_cells.count(cell.index) != 0) {
        // A failed result must not be memoized forever: drop it and
        // re-enqueue the cell so the next run re-attempts the task.
        std::error_code ec;
        fs::remove(failed_path(cell.index), ec);
      }
      todo.push_back(cell.index);
    }
  }
  for (std::size_t start = 0; start < todo.size(); start += chunk) {
    const std::size_t n = std::min(chunk, todo.size() - start);
    enqueue_segment(std::vector<std::size_t>(
        todo.begin() + static_cast<std::ptrdiff_t>(start),
        todo.begin() + static_cast<std::ptrdiff_t>(start + n)));
  }
}

bool WorkQueue::has_plan() const { return fs::exists(plan_path()); }

std::optional<double> WorkQueue::stored_lease_s(const std::string& dir) {
  std::ifstream in((fs::path(dir) / "lease").string());
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  const auto v = try_parse_double(line);
  if (!v || !std::isfinite(*v) || *v <= 0.0) return std::nullopt;
  return v;
}

std::optional<double> WorkQueue::stored_skew_margin_s(
    const std::string& dir) {
  std::ifstream in((fs::path(dir) / "lease").string());
  std::string line;
  if (!std::getline(in, line) || !std::getline(in, line)) {
    return std::nullopt;  // pre-skew lease files hold one line
  }
  const auto v = try_parse_double(line);
  if (!v || !std::isfinite(*v) || *v < 0.0) return std::nullopt;
  return v;
}

ExecutionPlan WorkQueue::load_plan() const {
  BBRM_REQUIRE_MSG(has_plan(), "queue " + dir_ + " has no plan yet");
  const std::string bytes = read_text_file(plan_path()).value_or("");
  require_current_stamp(dir_, bytes);
  stamp_checked_.store(true);
  // Parse a view past the stamp: a large plan's text runs to a hundred
  // MB, and neither a copy nor an in-place erase is free.
  return ExecutionPlan::parse(
      std::string_view(bytes).substr(kLayoutStamp.size()));
}

std::optional<Claim> WorkQueue::try_claim_segment(
    const std::string& worker_id) const {
  require_worker_id(worker_id);
  // Pop cached candidates first; one directory listing refills the
  // backlog when it runs dry. Stale candidates (claimed by a peer since
  // the listing) just fail their rename and are dropped individually, so
  // a full drain costs one readdir per refill, not one per segment — and
  // a peer's re-seed or recovery never forces a full relist. Two
  // refreshes bound the call when peers are racing us for the last
  // segments.
  for (int refresh = 0; refresh < 2; ++refresh) {
    while (true) {
      std::string pending_name;
      {
        std::lock_guard<std::mutex> lock(claim_mutex_);
        if (claim_backlog_.empty()) break;
        pending_name = std::move(claim_backlog_.back());
        claim_backlog_.pop_back();
      }
      const auto name = parse_segment_name(pending_name);
      if (!name) continue;
      const std::string to =
          (fs::path(active_dir()) /
           (name->stem + "." + worker_id + kSegmentExt))
              .string();
      std::error_code ec;
      fs::rename((fs::path(pending_dir()) / pending_name).string(), to, ec);
      if (ec) continue;  // stale entry: a peer won it; drop just this one
      // rename preserves the pending file's old mtime, so a recoverer
      // statting in this window can judge the fresh claim expired and
      // recover it. The touch stamps the lease; if it (or the read) finds
      // the claim already gone, the members are back in pending, so just
      // move on. A touch that failed with the file still present keeps
      // the claim (the next heartbeat re-stamps it); abandoning would
      // strand the entry.
      if (touch_by_write(to) == Touch::kMissing) continue;
      auto members = segment_members(to, *name);
      if (!members) continue;
      Claim claim;
      claim.indices = std::move(*members);
      claim.active_name = fs::path(to).filename().string();
      return claim;
    }
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(pending_dir(), ec)) {
      if (!entry.is_regular_file()) continue;
      std::string name = entry.path().filename().string();
      if (has_extension(name, kSegmentExt)) names.push_back(std::move(name));
    }
    if (names.empty()) return std::nullopt;
    // Reverse-sorted: pop_back claims lowest indices first (zero-padded
    // names make lexicographic order numeric order).
    std::sort(names.begin(), names.end(), std::greater<std::string>());
    std::lock_guard<std::mutex> lock(claim_mutex_);
    claim_backlog_ = std::move(names);
  }
  return std::nullopt;
}

std::string WorkQueue::enqueue_segment(
    const std::vector<std::size_t>& members) const {
  const std::string payload = encode_segment(members);
  const std::string name = segment_stem(members, payload) + kSegmentExt;
  write_file_atomically((fs::path(pending_dir()) / name).string(), payload,
                        "queue segment");
  return name;
}

void WorkQueue::trim(Claim& claim, std::size_t keep) const {
  if (keep == 0 || claim.indices.size() <= keep) return;
  const auto name = parse_segment_name(claim.active_name);
  BBRM_REQUIRE_MSG(name.has_value() && !name->worker.empty(),
                   "malformed claim name: " + claim.active_name);
  std::vector<std::size_t> kept(
      claim.indices.begin(),
      claim.indices.begin() + static_cast<std::ptrdiff_t>(keep));
  // Re-enqueue the surplus *before* shrinking the manifest: if this
  // worker dies in between, recovery re-enqueues the surplus again from
  // the fat manifest (a benign duplicate) — the reverse order could
  // strand cells in no state at all.
  std::string requeued = enqueue_segment(std::vector<std::size_t>(
      claim.indices.begin() + static_cast<std::ptrdiff_t>(keep),
      claim.indices.end()));
  // The manifest moves to the kept members' name. A crash between the
  // write and the remove leaves both manifests — recovery re-enqueues
  // from each, a benign duplication.
  const std::string payload = encode_segment(kept);
  std::string trimmed =
      segment_stem(kept, payload) + "." + name->worker + kSegmentExt;
  write_file_atomically((fs::path(active_dir()) / trimmed).string(), payload,
                        "queue segment claim");
  std::error_code ec;
  fs::remove((fs::path(active_dir()) / claim.active_name).string(), ec);
  // Mutate the claim only now that every write landed: a throw above
  // leaves it covering all members, so the caller's release() can still
  // return every unpublished cell.
  claim.active_name = std::move(trimmed);
  claim.indices = std::move(kept);
  backlog_insert({std::move(requeued)});
}

bool WorkQueue::renew(const Claim& claim) const {
  return touch_by_write(
             (fs::path(active_dir()) / claim.active_name).string()) ==
         Touch::kOk;
}

void WorkQueue::publish(const sweep::TaskResult& result,
                        const std::string& worker_id) const {
  if (!result.ok) {
    // Failures stay per-cell files: they are rare (O(failures), not
    // O(cells), directory entries), and the re-seed retry contract needs
    // to *drop* them — an append-only log cannot un-write a record.
    write_file_atomically(failed_path(result.task.index),
                          encode_result_file(result), "queue failed cell");
    return;
  }
  const std::string record =
      encode_log_record(result.task.index, result.ok, result.error,
                        sweep::encode_cell_metrics(result.metrics));
  std::lock_guard<std::mutex> lock(publish_mutex_);
  PubState& pub = open_publisher_locked(worker_id);
  const bool wrote =
      std::fwrite(record.data(), 1, record.size(), pub.append) ==
          record.size() &&
      std::fflush(pub.append) == 0;
  if (!wrote) {
    // The tail may be torn. Drop the handle: the next publish re-opens,
    // re-validates from the checkpoint, and truncates the damage before
    // appending again.
    std::fclose(pub.append);
    pub.append = nullptr;
    BBRM_REQUIRE_MSG(false, "queue result log append failed for worker " +
                                worker_id + " (" + log_path(worker_id) + ")");
  }
  pub.records += 1;
  pub.bytes += record.size();
  pub.unflushed += 1;
  if (pub.unflushed >= kCheckpointEvery) {
    write_checkpoint_locked(worker_id, pub);
  }
}

void WorkQueue::finish(const Claim& claim) const {
  // ENOENT is fine: an expired lease may already have been recovered —
  // the published bytes are identical either way, so the race is benign.
  std::error_code ec;
  fs::remove((fs::path(active_dir()) / claim.active_name).string(), ec);
}

std::size_t WorkQueue::requeue(const std::string& active_name,
                               const std::vector<std::size_t>& members,
                               const std::vector<std::size_t>& unpublished,
                               std::vector<std::string>& requeued) const {
  const std::string from = (fs::path(active_dir()) / active_name).string();
  std::error_code ec;
  if (unpublished.size() == members.size()) {
    // Nothing landed: the entry's bytes already are the pending segment's,
    // so one rename returns it whole. ENOENT means a peer recovered (or
    // the owner released) it first.
    const auto name = parse_segment_name(active_name);
    if (!name) return 0;
    std::string pending = name->stem + kSegmentExt;
    fs::rename(from, (fs::path(pending_dir()) / pending).string(), ec);
    if (ec) return 0;
    requeued.push_back(std::move(pending));
    return members.size();
  }
  // Enqueue the survivors *before* dropping the manifest that lists them:
  // a crash in between re-enqueues them twice (benign), never zero times.
  if (!unpublished.empty()) requeued.push_back(enqueue_segment(unpublished));
  fs::remove(from, ec);
  return unpublished.size();
}

void WorkQueue::release(const Claim& claim) const {
  std::vector<std::size_t> unpublished;
  {
    std::optional<std::unique_lock<std::mutex>> result_lock;
    for (const std::size_t index : claim.indices) {
      if (!result_published(index, result_lock)) unpublished.push_back(index);
    }
  }
  std::vector<std::string> requeued;
  requeue(claim.active_name, claim.indices, unpublished, requeued);
  backlog_insert(std::move(requeued));
}

/// Has a result for `index` landed? `result_lock` implements
/// refresh-once-per-sweep: the first query takes result_mutex_ and
/// refreshes the log index, later queries under the same optional are map
/// lookups plus one failed-file stat. Callers reset the optional before
/// touching any path that could publish.
bool WorkQueue::result_published(
    std::size_t index,
    std::optional<std::unique_lock<std::mutex>>& result_lock) const {
  if (!result_lock) {
    result_lock.emplace(result_mutex_);
    refresh_result_index_locked();
  }
  return result_index_.count(index) != 0 || fs::exists(failed_path(index));
}

void WorkQueue::backlog_insert(std::vector<std::string> names) const {
  if (names.empty()) return;
  std::lock_guard<std::mutex> lock(claim_mutex_);
  for (auto& name : names) {
    // The backlog is reverse-sorted (pop_back = lowest index first).
    const auto it =
        std::lower_bound(claim_backlog_.begin(), claim_backlog_.end(), name,
                         std::greater<std::string>());
    if (it != claim_backlog_.end() && *it == name) continue;
    claim_backlog_.insert(it, std::move(name));
  }
}

std::size_t WorkQueue::done_count() const {
  // Exact: |distinct ok indices in the logs| + |failed cells without an
  // ok record|. The refresh is incremental — each call stats the logs and
  // reads only bytes appended since the last call.
  std::lock_guard<std::mutex> lock(result_mutex_);
  refresh_result_index_locked();
  std::size_t done = result_index_.size();
  for (const std::size_t index : list_failed()) {
    if (result_index_.count(index) == 0) ++done;
  }
  return done;
}

QueueCounters WorkQueue::counters() const {
  check_plan_stamp();
  QueueCounters c;
  const auto stored = read_stored_counters(counters_path());
  if (!stored) {
    BBRM_REQUIRE_MSG(!has_plan(), "queue " + dir_ +
                                      " has a plan but its counters file "
                                      "is missing or damaged (" +
                                      counters_path() + ")");
    return c;  // nothing seeded yet
  }
  c.total = stored->total;
  c.segment_cells = stored->segment_cells;
  // Done = checkpoints + bounded tail scans. Logs are discovered through
  // workers/<id>.pub (written when a log opens), so no results/ readdir
  // happens here; duplicate re-publishes after a lease loss may overcount
  // until the next exact done_count() — callers gate completion on the
  // exact count, never on this.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(workers_dir(), ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".pub") {
      continue;
    }
    const std::string worker = entry.path().stem().string();
    const auto checkpoint = read_checkpoint(entry.path().string());
    const std::uint64_t records = checkpoint ? checkpoint->first : 0;
    const std::uint64_t covered = checkpoint ? checkpoint->second : 0;
    c.done += static_cast<std::size_t>(
        records + scan_log_records(log_path(worker), covered).records);
  }
  c.failed = list_failed().size();
  c.done += c.failed;
  // Active cells from claim names alone (the count token); members
  // already published still count, so done + active can briefly exceed
  // total for in-flight segments — pending clamps rather than wrap.
  for (const auto& entry : fs::directory_iterator(active_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    if (const auto name =
            parse_segment_name(entry.path().filename().string())) {
      c.active += name->count;
    }
  }
  c.pending = c.total > c.done + c.active ? c.total - c.done - c.active : 0;
  return c;
}

std::size_t WorkQueue::recover_expired() const {
  // "Now" comes from the queue filesystem's own clock (a fresh probe
  // write), never this host's — comparing two mtimes stamped by the same
  // authority is what makes expiry robust to cross-host clock skew. The
  // skew margin absorbs what residual scatter remains. When the probe
  // cannot be written (full disk, read-only queue root) recovery falls
  // back to the local clock: degraded precision, but crashed workers'
  // cells still re-enqueue instead of recovery silently going dead. The
  // probe write happens lazily, on the first live claim found — idle
  // workers polling an empty queue must not write the shared mount every
  // tick.
  std::optional<fs::file_time_type> now_ref;
  const double expiry_s = lease_s_ + skew_margin_s_;
  std::size_t recovered = 0;
  std::vector<std::string> requeued;
  std::optional<std::unique_lock<std::mutex>> result_lock;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(active_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string active_name = entry.path().filename().string();
    const auto name = parse_segment_name(active_name);
    if (!name) continue;
    const auto mtime = entry.last_write_time(ec);
    if (ec) continue;
    if (!now_ref) {
      now_ref = probe_now().value_or(fs::file_time_type::clock::now());
    }
    const double age_s =
        std::chrono::duration<double>(*now_ref - mtime).count();
    if (age_s <= expiry_s) continue;
    // Re-enqueue only the members whose result never landed; published
    // ones are done, only the claim is stale. A manifest that vanished
    // since the listing was finished (or recovered) by its owner —
    // nothing left to do.
    const auto members = segment_members(entry.path().string(), *name);
    if (!members) continue;
    std::vector<std::size_t> unpublished;
    for (const std::size_t member : *members) {
      if (!result_published(member, result_lock)) {
        unpublished.push_back(member);
      }
    }
    recovered += requeue(active_name, *members, unpublished, requeued);
  }
  // The re-enqueued segments were not in the cached claim backlog (it was
  // listed before they came back); insert them at their sorted positions
  // so the next claim picks them up without a full relist. Peer processes
  // converge the slower way — their stale backlogs drain and refresh on
  // empty.
  backlog_insert(std::move(requeued));
  return recovered;
}

const WorkQueue::ResultLoc* WorkQueue::find_result_locked(
    std::size_t index) const {
  // A hit is final: an indexed record never changes (first wins) and is
  // never erased, so only a miss needs the results/ readdir and log stats
  // a refresh costs — which still finds a cell published since the last
  // one.
  auto it = result_index_.find(index);
  if (it == result_index_.end()) {
    refresh_result_index_locked();
    it = result_index_.find(index);
  }
  return it == result_index_.end() ? nullptr : &it->second;
}

std::optional<bool> WorkQueue::result_ok(std::size_t index) const {
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    if (const ResultLoc* loc = find_result_locked(index)) return loc->ok != 0;
  }
  return result_file_ok(failed_path(index));
}

std::optional<sweep::TaskResult> WorkQueue::load_result(
    const sweep::SweepTask& task) const {
  {
    std::lock_guard<std::mutex> lock(result_mutex_);
    if (const ResultLoc* loc = find_result_locked(task.index)) {
      // One pread of one record through the cached handle — streaming
      // collects hold a single record in memory, never a segment's worth
      // of decoded results.
      LogState& log = logs_[loc->log];
      if (log.read == nullptr) {
        log.read = std::fopen(
            (fs::path(results_dir()) / log.name).string().c_str(), "rb");
      }
      std::string record(kLogHeaderBytes, '\0');
      if (log.read != nullptr &&
          std::fseek(log.read, static_cast<long>(loc->offset), SEEK_SET) ==
              0 &&
          std::fread(record.data(), 1, kLogHeaderBytes, log.read) ==
              kLogHeaderBytes &&
          get_u32(record.data()) == kLogMagic) {
        const std::uint32_t error_len = get_u32(record.data() + 4);
        const std::uint32_t payload_len = get_u32(record.data() + 8);
        if (error_len <= kMaxLogField && payload_len <= kMaxLogField) {
          const std::size_t body =
              static_cast<std::size_t>(error_len) + payload_len + 8;
          record.resize(kLogHeaderBytes + body);
          if (std::fread(record.data() + kLogHeaderBytes, 1, body,
                         log.read) == body) {
            if (const auto decoded =
                    decode_log_record(record.data(), record.size())) {
              auto metrics =
                  sweep::decode_cell_metrics(decoded->first.payload);
              if (metrics) {
                sweep::TaskResult result;
                result.task = task;
                result.metrics = std::move(*metrics);
                result.ok = decoded->first.ok;
                result.error = std::string(decoded->first.error);
                return result;
              }
            }
          }
        }
      }
      return std::nullopt;  // indexed but unreadable: damage stays loud
    }
  }
  return load_result_file(failed_path(task.index), task);
}

void WorkQueue::refresh_result_index_locked() const {
  // Adopt logs that appeared since the last refresh. Discovery is one
  // results/ readdir; per log, one stat decides whether any new bytes
  // exist at all.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(results_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!has_extension(name, ".rlog")) continue;
    if (log_ids_.count(name) != 0) continue;
    log_ids_[name] = static_cast<std::uint32_t>(logs_.size());
    LogState log;
    log.name = name;
    logs_.push_back(std::move(log));
  }
  constexpr std::size_t kChunk = std::size_t{1} << 22;  // 4 MiB window
  for (std::uint32_t id = 0; id < logs_.size(); ++id) {
    LogState& log = logs_[id];
    const std::string path = (fs::path(results_dir()) / log.name).string();
    std::error_code size_ec;
    const auto size = fs::file_size(path, size_ec);
    if (size_ec || size <= log.consumed) continue;
    if (log.read == nullptr) log.read = std::fopen(path.c_str(), "rb");
    if (log.read == nullptr) continue;
    if (std::fseek(log.read, static_cast<long>(log.consumed), SEEK_SET) !=
        0) {
      continue;
    }
    // Bounded window: decode records chunk by chunk so a collect of a
    // 100k-cell log never buffers the whole file (the RSS-flat contract
    // of streaming collects). A record spanning the window boundary
    // carries over and the window grows only until it completes.
    std::string window;
    while (log.consumed < size) {
      const std::uint64_t unread = size - (log.consumed + window.size());
      const std::size_t want =
          static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, unread));
      if (want > 0) {
        const std::size_t base = window.size();
        window.resize(base + want);
        const std::size_t got =
            std::fread(window.data() + base, 1, want, log.read);
        window.resize(base + got);
        if (got == 0) break;  // I/O error or concurrent truncate
      }
      std::size_t off = 0;
      while (const auto record = decode_log_record(window.data() + off,
                                                   window.size() - off)) {
        ResultLoc loc;
        loc.log = id;
        loc.ok = record->first.ok ? 1 : 0;
        loc.offset = log.consumed + off;
        result_index_.emplace(record->first.index, loc);  // first wins
        off += record->second;
      }
      window.erase(0, off);
      log.consumed += off;
      if (off == 0 && want == 0) break;  // torn/damaged tail: stop here
    }
  }
}

std::vector<std::size_t> WorkQueue::list_failed() const {
  std::vector<std::size_t> indices;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(failed_dir(), ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!has_extension(name, ".cell")) continue;
    if (const auto index = parse_index_name(name)) {
      indices.push_back(*index);
    }
  }
  return indices;
}

WorkQueue::PubState& WorkQueue::open_publisher_locked(
    const std::string& worker_id) const {
  require_worker_id(worker_id);
  PubState& pub = publishers_[worker_id];
  if (pub.append != nullptr) return pub;
  const std::string path = log_path(worker_id);
  // Validate the tail before appending: trust the checkpoint for the
  // bytes it covers, scan what follows, and truncate anything torn by a
  // previous crash of this worker id. A checkpoint claiming more bytes
  // than exist (log replaced underneath it) is discarded and the whole
  // log rescans.
  std::uint64_t records = 0;
  std::uint64_t covered = 0;
  if (const auto checkpoint = read_checkpoint(checkpoint_path(worker_id))) {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (!ec && checkpoint->second <= size) {
      records = checkpoint->first;
      covered = checkpoint->second;
    }
  }
  const LogScan scan = scan_log_records(path, covered);
  {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (!ec && size > scan.valid_end) {
      fs::resize_file(path, scan.valid_end, ec);
    }
  }
  // bbrlint:allow(atomic-io-required: per-worker result log is append-only
  // by design — records are checksum-framed and readers skip torn tails, so
  // crash-mid-append is recoverable without rename-per-record cost)
  pub.append = std::fopen(path.c_str(), "ab");
  BBRM_REQUIRE_MSG(pub.append != nullptr,
                   "cannot open queue result log " + path);
  pub.records = records + scan.records;
  pub.bytes = scan.valid_end;
  pub.unflushed = 0;
  // Write the checkpoint at open even when empty: workers/<id>.pub is how
  // the cheap counters path discovers logs without a results/ readdir.
  write_checkpoint_locked(worker_id, pub);
  return pub;
}

void WorkQueue::write_checkpoint_locked(const std::string& worker_id,
                                        PubState& pub) const {
  try {
    write_file_atomically(checkpoint_path(worker_id),
                          "records=" + std::to_string(pub.records) +
                              "\nbytes=" + std::to_string(pub.bytes) + "\n",
                          "queue publish checkpoint");
    pub.unflushed = 0;
  } catch (...) {
    // Advisory: readers tail-scan past whatever the last good checkpoint
    // covered, so a checkpoint that cannot land costs read time, not
    // correctness. The log append already succeeded — don't undo it.
  }
}

void WorkQueue::flush_published() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  for (auto& [worker, pub] : publishers_) {
    if (pub.append != nullptr && pub.unflushed > 0) {
      write_checkpoint_locked(worker, pub);
    }
  }
}

void WorkQueue::write_worker_stats(const WorkerStats& stats) const {
  require_worker_id(stats.worker_id);
  std::string bytes = "worker=" + stats.worker_id + "\n";
  bytes += "completed=" + std::to_string(stats.completed) + "\n";
  bytes += "failed=" + std::to_string(stats.failed) + "\n";
  bytes += "in_flight=" + std::to_string(stats.in_flight) + "\n";
  bytes += "elapsed_s=" + exact_number(stats.elapsed_s) + "\n";
  bytes += "cells_per_s=" + exact_number(stats.cells_per_s) + "\n";
  bytes +=
      "window_cells_per_s=" + exact_number(stats.window_cells_per_s) + "\n";
  write_file_atomically(
      (fs::path(workers_dir()) / (stats.worker_id + ".stats")).string(),
      bytes, "worker stats");
}

namespace {

/// One stats file's fields (heartbeat age is the caller's concern).
std::optional<WorkerStats> parse_worker_stats(const std::string& path,
                                              const std::string& fallback_id) {
  const auto fields = read_fields(path);
  if (!fields) return std::nullopt;
  WorkerStats stats;
  const auto worker = fields->find("worker");
  stats.worker_id = worker != fields->end() && !worker->second.empty()
                        ? worker->second
                        : fallback_id;
  stats.completed = static_cast<std::size_t>(
      u64_field(*fields, "completed").value_or(0));
  stats.failed =
      static_cast<std::size_t>(u64_field(*fields, "failed").value_or(0));
  stats.in_flight =
      static_cast<std::size_t>(u64_field(*fields, "in_flight").value_or(0));
  stats.elapsed_s = double_field(*fields, "elapsed_s");
  stats.cells_per_s = double_field(*fields, "cells_per_s");
  // Files written before the sliding window existed lack the field; the
  // lifetime average is the best available estimate there.
  stats.window_cells_per_s =
      fields->count("window_cells_per_s") != 0
          ? double_field(*fields, "window_cells_per_s")
          : stats.cells_per_s;
  return stats;
}

}  // namespace

std::vector<WorkerStats> WorkQueue::read_worker_stats() const {
  // Probe-relative ages, falling back to the local clock when the probe
  // cannot be written — an age of 0 would make long-dead workers look
  // freshly alive in status views.
  const auto now_ref =
      probe_now().value_or(fs::file_time_type::clock::now());
  std::vector<WorkerStats> all;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(workers_dir(), ec)) {
    if (!entry.is_regular_file() ||
        entry.path().extension() != ".stats") {
      continue;
    }
    auto stats = parse_worker_stats(entry.path().string(),
                                    entry.path().stem().string());
    if (!stats) continue;
    const auto mtime = entry.last_write_time(ec);
    if (!ec) {
      stats->heartbeat_age_s = std::max(
          0.0, std::chrono::duration<double>(now_ref - mtime).count());
    }
    all.push_back(std::move(*stats));
  }
  std::sort(all.begin(), all.end(),
            [](const WorkerStats& a, const WorkerStats& b) {
              return a.worker_id < b.worker_id;
            });
  return all;
}

std::optional<WorkerStats> WorkQueue::read_worker_stats(
    const std::string& worker_id) const {
  return parse_worker_stats(
      (fs::path(workers_dir()) / (worker_id + ".stats")).string(),
      worker_id);
}

void WorkQueue::remove_worker_stats(const std::string& worker_id) const {
  std::error_code ec;
  fs::remove((fs::path(workers_dir()) / (worker_id + ".stats")).string(),
             ec);
}

void WorkQueue::write_worker_metrics(const std::string& worker_id,
                                     const std::string& rendered) const {
  require_worker_id(worker_id);
  write_file_atomically(
      (fs::path(workers_dir()) / (worker_id + ".metrics")).string(),
      rendered, "worker metrics");
}

std::vector<std::pair<std::string, std::string>>
WorkQueue::read_worker_metrics() const {
  std::vector<std::pair<std::string, std::string>> all;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(workers_dir(), ec)) {
    if (!entry.is_regular_file() ||
        entry.path().extension() != ".metrics") {
      continue;
    }
    auto text = read_text_file(entry.path().string());
    if (!text) continue;
    all.emplace_back(entry.path().stem().string(), std::move(*text));
  }
  std::sort(all.begin(), all.end());
  return all;
}

RateWindow::RateWindow(double window_s)
    : window_s_(window_s > 0.0 ? window_s : 30.0) {}

void RateWindow::sample(double t_s, std::size_t completed) {
  samples_.emplace_back(t_s, completed);
  // Keep exactly one sample at or beyond the window's trailing edge: it
  // anchors the difference so rate() spans the full window, while
  // anything older only stretches the denominator into history.
  while (samples_.size() >= 2 &&
         samples_[1].first <= t_s - window_s_) {
    samples_.erase(samples_.begin());
  }
}

double RateWindow::rate() const {
  if (samples_.size() < 2) return 0.0;
  const double dt = samples_.back().first - samples_.front().first;
  if (dt <= 0.0) return 0.0;
  const std::size_t dc = samples_.back().second - samples_.front().second;
  return static_cast<double>(dc) / dt;
}

namespace {

/// Hot-path metric handles, resolved once (registry lookups take a lock).
struct QueueMetrics {
  obs::Counter& claims = obs::Registry::global().counter("queue.claims");
  obs::Counter& cells_claimed =
      obs::Registry::global().counter("queue.cells_claimed");
  obs::Counter& cells_published =
      obs::Registry::global().counter("queue.cells_published");
  obs::Histogram& claim_latency_s =
      obs::Registry::global().histogram("queue.claim_latency_s");
};

QueueMetrics& queue_metrics() {
  static QueueMetrics metrics;
  return metrics;
}

}  // namespace


WorkerReport run_worker(const WorkQueue& queue, const ExecutionPlan& plan,
                        const sweep::SweepOptions& options,
                        const WorkerConfig& config) {
  require_worker_id(config.worker_id);
  BBRM_REQUIRE_MSG(config.poll_s > 0.0, "poll interval must be positive");
  BBRM_REQUIRE_MSG(options.max_attempts >= 1,
                   "max_attempts must be at least 1");
  const std::string& worker_id = config.worker_id;
  const std::size_t max_cells = config.max_cells;

  // Every claimed cell goes through sweep::run_cell, the path a
  // single-process sweep takes, so caching, timeout and retry behave the
  // same. Parallelism comes from concurrent claim loops.
  sweep::Runner runner = options.runner;
  if (!runner && !plan.runner_name().empty()) {
    runner = sweep::runner_by_name(plan.runner_name());
  }
  if (!runner) runner = sweep::backend_runner();

  const auto started = std::chrono::steady_clock::now();
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> in_flight_cells{0};

  // Heartbeat: one background thread renews every in-flight lease well
  // inside the expiry window, so long cells survive short leases — one
  // touch per claimed segment, however many cells it holds. The same
  // cadence refreshes this worker's stats file when asked to.
  std::mutex mutex;
  std::map<std::string, Claim> in_flight;  // by active_name
  bool stop = false;
  std::condition_variable cv;
  // The rate window feeds `window_cells_per_s` (current throughput, what
  // gather_scale_inputs sizes fleets from); sampled from the claim loops
  // and the heartbeat thread, so it needs its own lock.
  std::mutex rate_mutex;
  RateWindow rate_window;
  const auto snapshot_stats = [&] {
    WorkerStats stats;
    stats.worker_id = worker_id;
    stats.completed = completed.load();
    stats.failed = failed.load();
    stats.in_flight = in_flight_cells.load();
    stats.elapsed_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started)
                          .count();
    stats.cells_per_s = stats.elapsed_s > 0.0
                            ? static_cast<double>(stats.completed) /
                                  stats.elapsed_s
                            : 0.0;
    {
      std::lock_guard<std::mutex> lock(rate_mutex);
      rate_window.sample(stats.elapsed_s, stats.completed);
      stats.window_cells_per_s = rate_window.rate();
    }
    return stats;
  };
  // Stats are advisory: a failed write (full disk, unwritable workers/)
  // must never take the worker down — least of all from the heartbeat
  // thread, where an uncaught exception would std::terminate with every
  // in-flight claim still held.
  const auto write_stats = [&] {
    if (!config.stats) return;
    try {
      queue.write_worker_stats(snapshot_stats());
      if (config.metrics) {
        queue.write_worker_metrics(
            worker_id,
            obs::render_metrics(obs::Registry::global().snapshot()));
      }
    } catch (...) {
    }
  };
  // Per-publish refresh, throttled to ~1/s so fast drains do not double
  // their write traffic: the fleet's strike budget reads `completed` to
  // tell a productive crash from a broken slot, so a kill between
  // heartbeat ticks must still find recent credit in the stats file.
  std::atomic<std::int64_t> last_stats_ms{0};
  const auto write_stats_throttled = [&] {
    if (!config.stats) return;
    const std::int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started)
            .count();
    std::int64_t last = last_stats_ms.load();
    if (now_ms - last < 1000) return;
    if (!last_stats_ms.compare_exchange_strong(last, now_ms)) return;
    write_stats();
  };
  // Report in before doing anything: the slot exists (for status views
  // and the fleet's progress attribution) even if this worker dies
  // before its first heartbeat tick.
  write_stats();
  std::thread heartbeat([&] {
    const auto interval = std::chrono::duration<double>(
        std::max(0.01, queue.lease_s() / 4.0));
    std::unique_lock<std::mutex> lock(mutex);
    while (!cv.wait_for(lock, interval, [&] { return stop; })) {
      const std::map<std::string, Claim> snapshot = in_flight;
      lock.unlock();
      {
        obs::Span span("lease-renew", "queue");
        span.arg("claims", static_cast<std::uint64_t>(snapshot.size()));
        for (const auto& [name, claim] : snapshot) {
          (void)name;
          queue.renew(claim);  // a lost lease is benign; see .h
        }
      }
      write_stats();
      lock.lock();
    }
  });

  // max_cells is a publish *budget* shared by every claim loop: a loop
  // reserves slots for the segment it just claimed (all of them, or what
  // is left) and trims the rest back to pending, so concurrent loops
  // cannot overshoot the cap.
  std::atomic<std::size_t> budget{0};
  const auto reserve = [&](std::size_t want) {
    std::size_t spent = budget.load();
    while (spent < max_cells) {
      const std::size_t take = std::min(want, max_cells - spent);
      if (budget.compare_exchange_weak(spent, spent + take)) return take;
    }
    return std::size_t{0};
  };
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  const std::size_t loops = std::max<std::size_t>(
      1, options.threads != 0 ? options.threads
                              : sweep::ThreadPool::hardware_threads());

  const auto claim_loop = [&] {
    while (!abort.load()) {
      if (max_cells != 0 && budget.load() >= max_cells) return;
      const auto claim_start = std::chrono::steady_clock::now();
      std::optional<Claim> claim;
      {
        obs::Span span("claim", "queue");
        claim = queue.try_claim_segment(worker_id);
        if (!claim) {
          // Nothing pending: a crashed peer may be holding expired leases.
          obs::Span recover_span("recover", "queue");
          queue.recover_expired();
          claim = queue.try_claim_segment(worker_id);
        }
        if (claim) {
          span.arg("cells", static_cast<std::uint64_t>(claim->indices.size()));
        }
      }
      if (!claim) {
        if (queue.done_count() >= plan.size()) return;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(config.poll_s));
        continue;
      }
      queue_metrics().claims.add();
      queue_metrics().cells_claimed.add(claim->indices.size());
      queue_metrics().claim_latency_s.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        claim_start)
              .count());
      // `charged` tracks the budget slots this claim holds, so the failure
      // path can give back exactly what was never published.
      std::size_t charged = 0;
      std::size_t published = 0;
      bool registered = false;
      try {
        if (max_cells != 0) {
          charged = reserve(claim->indices.size());
          if (charged == 0) {  // a peer loop spent the last slots
            queue.release(*claim);
            return;
          }
          queue.trim(*claim, charged);
        }
        {
          std::lock_guard<std::mutex> lock(mutex);
          in_flight[claim->active_name] = *claim;
        }
        registered = true;
        in_flight_cells.fetch_add(claim->indices.size());
        for (const std::size_t index : claim->indices) {
          const sweep::TaskResult result =
              sweep::run_cell(plan.cell_by_index(index), runner, options);
          {
            obs::Span span("append", "queue");
            queue.publish(result, worker_id);
          }
          queue_metrics().cells_published.add();
          ++published;
          in_flight_cells.fetch_sub(1);
          completed.fetch_add(1);
          if (!result.ok) failed.fetch_add(1);
          // A kill mid-segment must still find this cell's credit in the
          // stats file (throttled, so fast drains keep their write budget
          // for results).
          write_stats_throttled();
        }
        queue.finish(*claim);
        write_stats_throttled();
      } catch (...) {
        // Give the unfinished members back right away (and stop
        // heartbeating the segment): peers must not wait out a lease for
        // work this worker knows it abandoned — including when the
        // failure struck in trim() or the bookkeeping above, before any
        // member ran. Runner failures never land here — they are
        // reported rows; this is lookup/publish breakage.
        if (registered) {
          {
            std::lock_guard<std::mutex> lock(mutex);
            in_flight.erase(claim->active_name);
          }
          in_flight_cells.fetch_sub(claim->indices.size() - published);
        }
        if (max_cells != 0) budget.fetch_sub(charged - published);
        queue.release(*claim);
        throw;
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        in_flight.erase(claim->active_name);
      }
    }
  };

  // Exceptions must surface as the loud error they were written to be,
  // not as std::terminate from a detached thread: capture the first one,
  // wind the other loops down, and rethrow on the caller's thread.
  const auto guarded_loop = [&] {
    try {
      claim_loop();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex);
      if (!first_error) first_error = std::current_exception();
      abort.store(true);
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(loops);
  for (std::size_t i = 0; i < loops; ++i) workers.emplace_back(guarded_loop);
  for (auto& w : workers) w.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    stop = true;
  }
  cv.notify_all();
  heartbeat.join();
  write_stats();
  if (first_error) std::rethrow_exception(first_error);

  return {completed.load(), failed.load()};
}

namespace {

/// Walk the plan in index order, loading one result at a time.
std::size_t for_each_result(
    const WorkQueue& queue, const ExecutionPlan& plan,
    const std::function<void(const sweep::TaskResult&)>& visit) {
  std::size_t failed = 0;
  for (const auto& cell : plan.cells()) {
    auto result = queue.load_result(cell);
    BBRM_REQUIRE_MSG(result.has_value(),
                     "queue " + queue.dir() + " has no result for cell " +
                         std::to_string(cell.index) + " (" +
                         plan.describe_cell(cell.index) + ")");
    if (!result->ok) ++failed;
    if (visit) visit(*result);
  }
  return failed;
}

}  // namespace

std::size_t collect_csv(const WorkQueue& queue, const ExecutionPlan& plan,
                        std::ostream& out) {
  CsvWriter csv(out, sweep::SweepResult::csv_header());
  return for_each_result(queue, plan, [&](const sweep::TaskResult& r) {
    sweep::write_result_csv_row(csv, r);
  });
}

std::size_t collect_json(const WorkQueue& queue, const ExecutionPlan& plan,
                         std::ostream& out) {
  // The envelope's totals precede the rows, so count failures first —
  // status lines only, not a second full metrics decode of every cell.
  std::size_t failed = 0;
  for (const auto& cell : plan.cells()) {
    const auto ok = queue.result_ok(cell.index);
    BBRM_REQUIRE_MSG(ok.has_value(),
                     "queue " + queue.dir() + " has no result for cell " +
                         std::to_string(cell.index) + " (" +
                         plan.describe_cell(cell.index) + ")");
    if (!*ok) ++failed;
  }
  sweep::write_sweep_json(out, plan.size(), failed, [&](JsonWriter& j) {
    for_each_result(queue, plan, [&](const sweep::TaskResult& r) {
      sweep::write_result_json_row(j, r);
    });
  });
  return failed;
}

}  // namespace bbrmodel::orchestrator
