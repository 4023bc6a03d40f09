// Little-endian binary (de)serialization primitives: the one codec behind
// every saved-state format (MLDYCKPT platform snapshots, the MLDYSVCK and
// MLDYMIGR service envelopes, the session registry, the bid book and every
// estimator blob).
//
// Every writer is explicit about width and byte order, so snapshots are
// portable across platforms; every reader validates stream state and throws
// std::runtime_error with the caller-supplied context on truncation, so a
// corrupt checkpoint fails loudly instead of resuming from garbage. No
// reader lets a count or length from the stream size an allocation ahead
// of the bytes that back it: read_bytes grows in bounded chunks, and
// loaders of counted records reserve at most reserve_bounded's cap, then
// append as records arrive.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace melody::util::binio {

inline void write_u8(std::ostream& out, std::uint8_t value) {
  out.put(static_cast<char>(value));
}

inline void write_u32(std::ostream& out, std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  out.write(bytes, sizeof bytes);
}

inline void write_u64(std::ostream& out, std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  out.write(bytes, sizeof bytes);
}

inline void write_i32(std::ostream& out, std::int32_t value) {
  write_u32(out, static_cast<std::uint32_t>(value));
}

inline void write_f64(std::ostream& out, double value) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  write_u64(out, std::bit_cast<std::uint64_t>(value));
}

/// Length-prefixed byte string (u64 length + raw bytes).
inline void write_bytes(std::ostream& out, const std::string& bytes) {
  write_u64(out, bytes.size());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

inline std::uint8_t read_u8(std::istream& in, const char* what) {
  const int c = in.get();
  if (c == std::char_traits<char>::eof()) {
    throw std::runtime_error(std::string(what) + ": truncated input");
  }
  return static_cast<std::uint8_t>(c);
}

inline std::uint32_t read_u32(std::istream& in, const char* what) {
  char bytes[4];
  if (!in.read(bytes, sizeof bytes)) {
    throw std::runtime_error(std::string(what) + ": truncated input");
  }
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

inline std::uint64_t read_u64(std::istream& in, const char* what) {
  char bytes[8];
  if (!in.read(bytes, sizeof bytes)) {
    throw std::runtime_error(std::string(what) + ": truncated input");
  }
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
             << (8 * i);
  }
  return value;
}

inline std::int32_t read_i32(std::istream& in, const char* what) {
  return static_cast<std::int32_t>(read_u32(in, what));
}

inline double read_f64(std::istream& in, const char* what) {
  return std::bit_cast<double>(read_u64(in, what));
}

/// Reads a length-prefixed byte string written by write_bytes. `max_size`
/// rejects an implausible length outright; below it the string grows in
/// 1 MiB chunks as bytes arrive, so a corrupt length fails on the missing
/// bytes instead of allocating what it claims.
inline std::string read_bytes(std::istream& in, const char* what,
                              std::uint64_t max_size = (1ull << 32)) {
  constexpr std::uint64_t kChunk = 1ull << 20;
  const std::uint64_t size = read_u64(in, what);
  if (size > max_size) {
    throw std::runtime_error(std::string(what) + ": implausible length");
  }
  std::string bytes;
  while (bytes.size() < size) {
    const std::size_t have = bytes.size();
    const auto step = static_cast<std::size_t>(std::min(size - have, kChunk));
    bytes.resize(have + step);
    if (!in.read(bytes.data() + have, static_cast<std::streamsize>(step))) {
      throw std::runtime_error(std::string(what) + ": truncated input");
    }
  }
  return bytes;
}

/// Reserve room for `count` records about to be read from a stream, capped
/// at 4096: a corrupt count costs one bounded allocation before the reads
/// fail, and past the cap the container grows as records arrive.
template <typename Container>
void reserve_bounded(Container& container, std::uint64_t count) {
  container.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(count, 4096)));
}

/// Format header: the format's magic bytes, then its u32 version.
inline void write_header(std::ostream& out, std::string_view magic,
                         std::uint32_t version) {
  out.write(magic.data(), static_cast<std::streamsize>(magic.size()));
  write_u32(out, version);
}

/// Reads and checks a header written by write_header. Each format reads
/// exactly one version: a foreign magic or any other version throws
/// std::runtime_error naming the format and the version.
inline void read_header(std::istream& in, std::string_view magic,
                        std::uint32_t version) {
  const std::string format(magic);
  std::string got(magic.size(), '\0');
  if (!in.read(got.data(), static_cast<std::streamsize>(got.size())) ||
      got != magic) {
    throw std::runtime_error(format + ": bad magic (expected " + format +
                             " version " + std::to_string(version) + ")");
  }
  const std::uint32_t found = read_u32(in, (format + " version").c_str());
  if (found != version) {
    throw std::runtime_error(format + ": unsupported version " +
                             std::to_string(found) + " (this build reads " +
                             std::to_string(version) + ")");
  }
}

}  // namespace melody::util::binio
