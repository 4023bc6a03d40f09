// The one writer and reader of every state file (platform checkpoints,
// composed service checkpoints, shard-export envelopes). Each file is
// written and read whole: a reader of `path` sees either the previous file
// or the complete new one, never a truncated mix.
#pragma once

#include <span>
#include <string>
#include <string_view>

namespace melody::util {

/// Writes the concatenation of `parts` to "<path>.tmp", then flushes and
/// closes it, checks that every byte reached the file, and only then
/// renames it over `path`. On any failure — open, write, the final flush,
/// close or rename — the temporary file is removed, `path` keeps its
/// previous content, and std::runtime_error names the file. A file made
/// of separately built pieces (a header and K bodies) is written as it
/// stands, never composed into one buffer first.
void write_file_atomically(const std::string& path,
                           std::span<const std::string_view> parts);

/// The one-part case of the above.
void write_file_atomically(const std::string& path, std::string_view bytes);

/// The whole content of `path` in one read. Throws std::runtime_error
/// "<what>: cannot open <path>" when it cannot be opened or read.
std::string read_file(const std::string& path, std::string_view what);

}  // namespace melody::util
