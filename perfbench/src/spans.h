// In-memory spans recorded around the benchmark's own calls into the
// library's public functions.
//
// The library is measured from outside: the traced run wraps each phase
// call (execute, seed, load_plan, run_worker, collect_*) and, through a
// copy of the backend runner, each build / run / evaluate call of a cell in
// a Span. Spans are kept in per-thread buffers (no locking on the record
// path) and written out as one Chrome trace when the run ends.
//
// Self time uses a thread-seconds model: a span that keeps `width` threads
// busy (a parallel phase) covers width × duration thread-seconds, and its
// self time is that minus the durations of its child spans, which may run
// on other threads. The self times of all spans of a pass then sum to the
// pass's thread-seconds exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One finished span.
struct SpanRecord {
  const char* name = "";        ///< "<layer>.<call>"; a string literal
  std::int64_t start_ns = 0;    ///< steady clock, from the recorder's epoch
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;         ///< 1-based, unique within a pass
  std::uint32_t parent = 0;     ///< enclosing span (0 = root)
  std::uint32_t thread = 0;     ///< recorder-assigned thread number
  std::uint32_t width = 1;      ///< threads the call keeps busy
  std::int64_t cell = -1;       ///< plan cell index; -1 for phase spans
  std::uint64_t count = 0;      ///< work done (events, agent-steps, cells)

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
  /// The layer: the name up to its first '.'.
  std::string layer() const;
};

/// Start recording a pass: drop earlier spans and enable Span.
void start_recording();

/// Stop recording and return every span of the pass. Call only when no
/// other thread can still record (after the traced calls returned).
std::vector<SpanRecord> stop_recording();

/// RAII span. A no-op unless recording is on.
class Span {
 public:
  explicit Span(const char* name, std::int64_t cell = -1,
                std::uint32_t width = 1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_count(std::uint64_t count) { record_.count = count; }

 private:
  SpanRecord record_;
  bool active_ = false;
  std::uint32_t saved_current_ = 0;
  std::uint32_t saved_root_ = 0;
};

/// Write spans as a Chrome trace ("X" events, one pid per pass).
/// Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<SpanRecord>>& passes);

}  // namespace perfbench
