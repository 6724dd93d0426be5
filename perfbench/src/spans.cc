#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

/// One thread's spans. Written only by its thread while recording; read
/// by stop_recording after that thread's traced calls returned.
struct Buffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

struct Recorder {
  std::atomic<bool> on{false};
  /// Bumped by start_recording so threads re-register their buffers.
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint32_t> next_id{1};
  /// The open parallel-phase span: the parent of spans that start on a
  /// thread with no open span of its own (library worker threads).
  std::atomic<std::uint32_t> root{0};
  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::mutex mutex;
  std::vector<std::unique_ptr<Buffer>> buffers;  // guarded by mutex
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

thread_local Buffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_generation = 0;
thread_local std::uint32_t tl_current = 0;  // innermost open span here

Buffer& local_buffer() {
  Recorder& r = recorder();
  const std::uint64_t generation = r.generation.load();
  if (tl_buffer == nullptr || tl_generation != generation) {
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(std::make_unique<Buffer>());
    tl_buffer = r.buffers.back().get();
    tl_buffer->thread = static_cast<std::uint32_t>(r.buffers.size() - 1);
    tl_generation = generation;
  }
  return *tl_buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - recorder().epoch)
      .count();
}

}  // namespace

std::string SpanRecord::layer() const {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

void start_recording() {
  Recorder& r = recorder();
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.clear();
  }
  r.next_id.store(1);
  r.root.store(0);
  r.generation.fetch_add(1);
  r.on.store(true);
}

std::vector<SpanRecord> stop_recording() {
  Recorder& r = recorder();
  r.on.store(false);
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<SpanRecord> all;
  for (const auto& buffer : r.buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  r.buffers.clear();
  return all;
}

Span::Span(const char* name, std::int64_t cell, std::uint32_t width) {
  Recorder& r = recorder();
  if (!r.on.load(std::memory_order_relaxed)) return;
  active_ = true;
  record_.name = name;
  record_.cell = cell;
  record_.width = width;
  record_.thread = local_buffer().thread;
  record_.id = r.next_id.fetch_add(1);
  record_.parent = tl_current != 0 ? tl_current : r.root.load();
  saved_current_ = tl_current;
  tl_current = record_.id;
  if (width > 1) saved_root_ = r.root.exchange(record_.id);
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = now_ns();
  tl_current = saved_current_;
  if (record_.width > 1) recorder().root.store(saved_root_);
  local_buffer().spans.push_back(record_);
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<SpanRecord>>& passes) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  for (std::size_t pass = 0; pass < passes.size(); ++pass) {
    for (const SpanRecord& s : passes[pass]) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%zu,\"tid\":%u,"
                   "\"args\":{\"id\":%u,\"parent\":%u,\"width\":%u,"
                   "\"cell\":%lld,\"count\":%llu}}",
                   first ? "" : ",\n", s.name, s.layer().c_str(),
                   1e-3 * static_cast<double>(s.start_ns),
                   1e-3 * static_cast<double>(s.end_ns - s.start_ns), pass,
                   s.thread, s.id, s.parent, s.width,
                   static_cast<long long>(s.cell),
                   static_cast<unsigned long long>(s.count));
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
