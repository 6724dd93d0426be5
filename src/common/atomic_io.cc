#include "common/atomic_io.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

#include "common/hash.h"
#include "common/require.h"

namespace bbrmodel {

void write_file_atomically(const std::string& path, const std::string& bytes,
                           const std::string& what) {
  // The temp name must be unique per writer across *processes*: thread ids
  // alone can hash identically in two processes racing to double-complete
  // the same deterministic cell, and an interleaved temp file would get
  // renamed into place as corrupt data.
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "-" +
      hex64(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  bool written = false;
  {
    std::ofstream out(tmp, std::ios::trunc);
    BBRM_REQUIRE_MSG(static_cast<bool>(out),
                     "cannot write " + what + " temp file " + tmp);
    out << bytes;
    out.flush();
    written = out.good();  // a full disk must not publish truncated bytes
  }
  if (!written) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    BBRM_REQUIRE_MSG(false, "failed writing " + what + " (" + path + ")");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  BBRM_REQUIRE_MSG(!ec, "cannot publish " + what + " at " + path);
}

std::optional<std::string> read_text_file(const std::string& path) {
  // One buffer sized from fstat and filled by one read: a plan file runs
  // to a hundred MB, and a growing copy through a stream would hold it two
  // or three times over at the peak.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string bytes;
  struct stat st {};
  if (::fstat(::fileno(file), &st) == 0 && st.st_size > 0) {
    bytes.resize(static_cast<std::size_t>(st.st_size));
  }
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), file));
  // Whatever the file grew by since the fstat (all of it, when the size
  // was unknown).
  char more[4096];
  for (std::size_t n; (n = std::fread(more, 1, sizeof more, file)) > 0;) {
    bytes.append(more, n);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) return std::nullopt;
  return bytes;
}

}  // namespace bbrmodel
