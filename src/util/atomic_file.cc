#include "util/atomic_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
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

MappedFile::MappedFile(const std::string& path, const std::string_view what) {
  const auto refuse = [&] {
    return std::runtime_error(std::string(what) + ": cannot open " + path);
  };
  // Refuse a directory or special file before open: opening a FIFO for
  // reading blocks until a writer appears. O_NONBLOCK and the fstat below
  // cover a path swapped for one in between.
  struct stat status {};
  if (::stat(path.c_str(), &status) != 0 || !S_ISREG(status.st_mode)) {
    throw refuse();
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0) throw refuse();
  if (::fstat(fd, &status) != 0 || !S_ISREG(status.st_mode)) {
    ::close(fd);
    throw refuse();
  }
  size_ = static_cast<std::size_t>(status.st_size);
  if (size_ > 0) {  // mmap refuses a zero length; an empty file is no bytes
    void* const map = ::mmap(nullptr, size_, PROT_READ,
                             MAP_PRIVATE | MAP_POPULATE, fd, 0);
    if (map == MAP_FAILED) {
      ::close(fd);
      throw refuse();
    }
    data_ = static_cast<const char*>(map);
  }
  ::close(fd);  // the mapping outlives its descriptor
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

}  // namespace melody::util
