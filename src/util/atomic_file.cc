#include "util/atomic_file.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace melody::util {

void write_file_atomically(const std::string& path,
                           std::span<const std::string_view> parts) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + tmp);
  for (const std::string_view part : parts) {
    out.write(part.data(), static_cast<std::streamsize>(part.size()));
  }
  // close() flushes the last buffered bytes and sets failbit when that
  // flush or the close itself fails — a check before close would miss it.
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
}

void write_file_atomically(const std::string& path, std::string_view bytes) {
  write_file_atomically(path, std::span<const std::string_view>(&bytes, 1));
}

std::string read_file(const std::string& path, std::string_view what) {
  // file_size refuses a directory or special file, whose seek end is no
  // byte count.
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  std::ifstream in(path, std::ios::binary);
  std::string bytes;
  if (!error && in) {
    bytes.resize(static_cast<std::size_t>(size));
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  if (error || !in) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  return bytes;
}

}  // namespace melody::util
