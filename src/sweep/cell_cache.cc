#include "sweep/cell_cache.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>
#include <vector>

#include "common/atomic_io.h"
#include "common/hash.h"
#include "common/parse.h"
#include "common/require.h"
#include "scenario/spec_codec.h"

namespace bbrmodel::sweep {

namespace {

// One header + one row per cell file. Bumping the layout invalidates old
// cells gracefully: a header mismatch reads as a miss, never as bad data.
const char* kCellHeader =
    "jain,loss_pct,occupancy_pct,utilization_pct,jitter_ms,mean_rate_pps,aux";

constexpr const char* kManifestName = "manifest.idx";

/// Manifest entries, keyed by cell key; duplicate appends collapse to the
/// latest line. Malformed lines are skipped: the manifest is an index the
/// cells can always rebuild, never the truth.
std::map<std::string, std::uintmax_t> read_manifest(const std::string& path) {
  std::map<std::string, std::uintmax_t> entries;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos || space == 0) continue;
    const auto bytes = try_parse_u64(line.substr(space + 1));
    if (!bytes) continue;
    entries[line.substr(0, space)] = *bytes;
  }
  return entries;
}

/// The failed-task metric signature (sweep's failed_metrics(): every
/// scalar NaN). Failed cells must never be memoized — a task that timed
/// out once would otherwise be served NaN metrics forever on warm reruns,
/// so the transient failure would never be re-attempted.
bool failed_cell_payload(const metrics::AggregateMetrics& m) {
  return std::isnan(m.jain) && std::isnan(m.loss_pct) &&
         std::isnan(m.occupancy_pct) && std::isnan(m.utilization_pct) &&
         std::isnan(m.jitter_ms);
}

std::string manifest_bytes(
    const std::map<std::string, std::uintmax_t>& entries) {
  std::string out;
  for (const auto& [key, bytes] : entries) {
    out += key;
    out += ' ';
    out += std::to_string(bytes);
    out += '\n';
  }
  return out;
}

}  // namespace

std::string encode_cell_metrics(const metrics::AggregateMetrics& m) {
  // A one-row CSV; no cell ever needs quoting (numbers and
  // space-separated number lists).
  std::string out = kCellHeader;
  out += '\n';
  for (const double v : {m.jain, m.loss_pct, m.occupancy_pct,
                         m.utilization_pct, m.jitter_ms}) {
    append_exact_number(out, v);
    out += ',';
  }
  append_exact_numbers(out, m.mean_rate_pps);
  out += ',';
  append_exact_numbers(out, m.aux);
  out += '\n';
  return out;
}

std::optional<metrics::AggregateMetrics> decode_cell_metrics(
    std::string_view bytes) {
  const std::string_view header = kCellHeader;
  if (bytes.substr(0, header.size()) != header ||
      bytes.substr(header.size(), 1) != "\n") {
    return std::nullopt;
  }
  std::string_view row = bytes.substr(header.size() + 1);
  row = row.substr(0, row.find('\n'));
  if (row.empty()) return std::nullopt;

  // Exactly seven comma-separated cells; the last (aux) may be empty.
  std::string_view cells[7];
  for (std::size_t i = 0; i < 7; ++i) {
    const auto comma = row.find(',');
    if ((comma == std::string_view::npos) != (i == 6)) return std::nullopt;
    cells[i] = row.substr(0, comma);
    if (comma != std::string_view::npos) row.remove_prefix(comma + 1);
  }

  metrics::AggregateMetrics m;
  double* scalars[5] = {&m.jain, &m.loss_pct, &m.occupancy_pct,
                        &m.utilization_pct, &m.jitter_ms};
  for (std::size_t i = 0; i < 5; ++i) {
    const auto v = parse_number<double>(cells[i]);
    if (!v) return std::nullopt;
    *scalars[i] = *v;
  }
  // A malformed vector must read as a miss, not as a hit with an empty
  // vector.
  auto rates = parse_number_list(cells[5]);
  auto aux = parse_number_list(cells[6]);
  if (!rates || !aux) return std::nullopt;
  m.mean_rate_pps = std::move(*rates);
  m.aux = std::move(*aux);
  return m;
}

CellCache::CellCache(std::string dir) : dir_(std::move(dir)) {
  BBRM_REQUIRE_MSG(!dir_.empty(), "cache directory must be non-empty");
  std::filesystem::create_directories(dir_);
}

std::string CellCache::cell_path(const std::string& key) const {
  return (std::filesystem::path(dir_) / (key + ".cell")).string();
}

std::string CellCache::manifest_path() const {
  return (std::filesystem::path(dir_) / kManifestName).string();
}

std::optional<metrics::AggregateMetrics> CellCache::load(
    const std::string& key) const {
  const auto bytes = read_text_file(cell_path(key));
  auto decoded = bytes ? decode_cell_metrics(*bytes)
                       : std::optional<metrics::AggregateMetrics>{};
  // A failed cell (all-NaN scalars — planted by hand or by a pre-fix
  // store) reads as a miss so the task is re-attempted, never served its
  // old failure forever.
  if (decoded && failed_cell_payload(*decoded)) decoded.reset();
  if (!decoded) {
    misses_.fetch_add(1);
    return std::nullopt;
  }
  hits_.fetch_add(1);
  return decoded;
}

void CellCache::store(const std::string& key,
                      const metrics::AggregateMetrics& m) const {
  BBRM_REQUIRE_MSG(key.find_first_of(" \t\r\n") == std::string::npos,
                   "cell keys must not contain whitespace (manifest lines)");
  // Never memoize a failure: the engine only stores ok results, but this
  // is the contract's last line of defense for any embedder calling
  // store() directly.
  if (failed_cell_payload(m)) return;
  // Index any pre-manifest store *before* the append below creates the
  // file — otherwise a legacy directory would get a manifest holding only
  // the new cells, permanently hiding the old ones from stats/gc.
  ensure_manifest();
  const std::string bytes = encode_cell_metrics(m);
  write_file_atomically(cell_path(key), bytes, "cache cell " + key);
  // Record the cell in the manifest. Appends are small single writes, so
  // concurrent writers interleave whole lines in practice; a line lost to
  // a concurrent gc rewrite only makes the index stale, and reindex()
  // recovers it from the cells themselves.
  std::ofstream manifest(manifest_path(), std::ios::app);
  if (manifest) manifest << key << ' ' << bytes.size() << '\n';
  stores_.fetch_add(1);
}

void CellCache::ensure_manifest() const {
  if (!std::filesystem::exists(manifest_path())) reindex();
}

CacheStats CellCache::stats() const {
  ensure_manifest();
  CacheStats stats;
  for (const auto& [key, bytes] : read_manifest(manifest_path())) {
    (void)key;
    ++stats.cells;
    stats.bytes += bytes;
  }
  return stats;
}

CacheGcResult CellCache::gc(std::uintmax_t max_bytes) const {
  ensure_manifest();
  struct CellFile {
    std::filesystem::file_time_type mtime;
    std::string path;  // tie-break: mtime resolution can collide
    std::string key;
    std::uintmax_t bytes = 0;
  };
  // The manifest names the candidates; sizes and mtimes come from the
  // cells themselves so eviction order reflects reality even when the
  // recorded sizes are stale. Entries whose cell vanished are dropped.
  std::vector<CellFile> files;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& [key, recorded_bytes] : read_manifest(manifest_path())) {
    (void)recorded_bytes;
    CellFile f;
    f.key = key;
    f.path = cell_path(key);
    f.bytes = std::filesystem::file_size(f.path, ec);
    if (ec) continue;  // evicted or removed behind the manifest's back
    f.mtime = std::filesystem::last_write_time(f.path, ec);
    if (ec) continue;
    total += f.bytes;
    files.push_back(std::move(f));
  }
  std::sort(files.begin(), files.end(),
            [](const CellFile& a, const CellFile& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });

  CacheGcResult result;
  std::map<std::string, std::uintmax_t> kept;
  for (const CellFile& f : files) {
    if (total > max_bytes) {
      std::filesystem::remove(f.path, ec);
      total -= f.bytes;
      ++result.evicted_cells;
      result.evicted_bytes += f.bytes;
    } else {
      ++result.kept_cells;
      result.kept_bytes += f.bytes;
      kept[f.key] = f.bytes;
    }
  }
  write_file_atomically(manifest_path(), manifest_bytes(kept),
                        "cache manifest");
  return result;
}

CacheStats CellCache::reindex() const {
  std::map<std::string, std::uintmax_t> entries;
  CacheStats stats;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".cell") {
      continue;
    }
    const std::uintmax_t size = entry.file_size(ec);
    if (ec) continue;  // vanished under a concurrent gc: not an error
    entries[entry.path().stem().string()] = size;
    ++stats.cells;
    stats.bytes += size;
  }
  write_file_atomically(manifest_path(), manifest_bytes(entries),
                        "cache manifest");
  return stats;
}

std::string cell_key(const std::string& runner_name, const SweepTask& task) {
  BBRM_REQUIRE_MSG(!runner_name.empty(),
                   "only named runners participate in caching");
  std::string name = runner_name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '-') {
      c = '_';
    }
  }
  return name + "-" + to_string(task.backend) + "-" +
         scenario::canonical_spec_hash(task.spec);
}

}  // namespace bbrmodel::sweep
