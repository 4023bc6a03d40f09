// The one writer and reader of every state file (platform checkpoints,
// composed service checkpoints, shard-export envelopes). Each file is
// written whole and read whole: a reader of `path` sees either the previous
// file or the complete new one, never a truncated mix, because a writer
// only ever renames a finished file into place.
//
// A reader maps the file read-only instead of copying it (MappedFile) and
// parses the mapping in place, holding it only for the parse. A file
// replaced by rename during that parse keeps its old bytes under the
// mapping. The one hazard is a file truncated *in place* by another process
// while it is mapped: touching a page past the new end raises SIGBUS. No
// writer here does that.
#pragma once

#include <cstddef>
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

/// The whole content of a regular file, mapped read-only and private, its
/// pages read in up front (MAP_POPULATE). Anything that is not a regular
/// file (a directory, a FIFO, a device) is refused before it is opened, so
/// a FIFO never blocks the reader. Unmapped on destruction.
class MappedFile {
 public:
  /// Throws std::runtime_error "<what>: cannot open <path>" when `path` is
  /// missing, not a regular file, or cannot be opened or mapped.
  MappedFile(const std::string& path, std::string_view what);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The file's bytes, valid while this object lives; empty for an empty
  /// file.
  std::string_view bytes() const noexcept { return {data_, size_}; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace melody::util
