// One writer for every state file (platform checkpoints, composed service
// checkpoints, shard-export envelopes): a reader of `path` sees either the
// previous file or the complete new one, never a truncated mix.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace melody::util {

/// Streams `write` into "<path>.tmp", then flushes and closes it, checks
/// that every byte reached the file, and only then renames it over `path`.
/// On any failure — open, write, the final flush, close or rename — the
/// temporary file is removed, `path` keeps its previous content, and
/// std::runtime_error names the file (an exception thrown by `write`
/// propagates unchanged).
void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& write);

}  // namespace melody::util
