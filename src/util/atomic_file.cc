#include "util/atomic_file.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace melody::util {

void write_file_atomically(const std::string& path,
                           const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + tmp);
  try {
    write(out);
  } catch (...) {
    out.close();
    std::remove(tmp.c_str());
    throw;
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

}  // namespace melody::util
