// Atomic whole-file publication, shared by every on-disk store that must
// tolerate concurrent writers (the cell cache, its manifest, the work
// queue's plan/result files).
//
// The contract: readers only ever see complete files, and two writers of
// the same path — even in different processes on a shared filesystem —
// never interleave bytes, because each writes its own uniquely named temp
// file and publishes it with one rename(2). Last writer wins; in this
// codebase same-path writers always produce identical bytes (determinism),
// so the race is benign by construction.
#pragma once

#include <optional>
#include <string>

namespace bbrmodel {

/// Write `bytes` to a per-writer temp file next to `path`, then rename it
/// into place. Throws PreconditionError (mentioning `what`) when the temp
/// file cannot be written completely (e.g. full disk) or the rename fails;
/// a partial temp file is removed, never published.
void write_file_atomically(const std::string& path, const std::string& bytes,
                           const std::string& what);

/// The matching read half: the file's whole contents, or nullopt when it
/// cannot be opened or read. Callers decide whether absence is a miss
/// (cache), a wait (queue), or an error (CLI).
std::optional<std::string> read_text_file(const std::string& path);

}  // namespace bbrmodel
