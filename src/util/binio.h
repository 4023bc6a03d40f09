// Little-endian binary (de)serialization: the one codec behind every
// saved-state format (MLDYCKPT platform snapshots, the MLDYSVCK and
// MLDYMIGR service envelopes, the session registry, every estimator blob
// and the MLDYFACD facade snapshot).
//
// Every state file is written whole and read whole, so a format body is
// built and parsed in memory. A Writer appends fixed-width little-endian
// values to one std::string, which a caller that knows the size to expect
// reserves up front (Writer::reserve). A Reader walks a std::string_view of
// bytes already in memory, in practice a read-only mapping of the whole
// file (util::MappedFile), and a length-prefixed blob comes back as a
// sub-view of the same bytes, never a copy. Every read checks its width against the bytes
// left and throws std::runtime_error with the caller-supplied context on
// truncation, so a corrupt checkpoint fails loudly instead of resuming
// from garbage. No count or length read from the input sizes an
// allocation ahead of the bytes that back it: Reader::reserve first checks
// count × minimum record width against the bytes left.
//
// The std::istream / std::ostream signatures kept on the public API are
// boundary adapters over these two types: read_stream parses a string
// stream's bytes in place and makes one bulk copy of any other stream's,
// write_stream makes one bulk write.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace melody::util::binio {

/// `value` with its bytes in little-endian order on this host; its own
/// inverse, and a no-op on a little-endian host.
template <typename T>
T little_endian(T value) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 4) return __builtin_bswap32(value);
    if constexpr (sizeof(T) == 8) return __builtin_bswap64(value);
  }
  return value;
}

/// Appends values to one in-memory buffer.
class Writer {
 public:
  void write_u8(std::uint8_t value) {
    bytes_.push_back(static_cast<char>(value));
  }

  void write_u32(std::uint32_t value) { append_le(value); }
  void write_u64(std::uint64_t value) { append_le(value); }
  void write_i32(std::int32_t value) {
    write_u32(static_cast<std::uint32_t>(value));
  }
  void write_f64(double value) {
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    write_u64(std::bit_cast<std::uint64_t>(value));
  }

  /// Length-prefixed byte string (u64 length + raw bytes).
  void write_bytes(std::string_view bytes) {
    write_u64(bytes.size());
    bytes_.append(bytes);
  }

  /// A length-prefixed blob whose body `write(*this)` appends in place:
  /// the same bytes as write_bytes of that body, without a second buffer.
  template <typename Body>
  void write_blob(Body&& write) {
    const std::size_t prefix = bytes_.size();
    write_u64(0);
    write(*this);
    const std::uint64_t size = little_endian<std::uint64_t>(
        bytes_.size() - prefix - sizeof(std::uint64_t));
    std::memcpy(bytes_.data() + prefix, &size, sizeof size);
  }

  /// Format header: the format's magic bytes, then its u32 version.
  void write_header(std::string_view magic, std::uint32_t version) {
    bytes_.append(magic);
    write_u32(version);
  }

  /// Raw bytes with no length prefix.
  void write_raw(std::string_view bytes) { bytes_.append(bytes); }

  void reserve(std::size_t size) { bytes_.reserve(size); }
  const std::string& bytes() const noexcept { return bytes_; }
  std::string take() noexcept { return std::move(bytes_); }

 private:
  template <typename T>
  void append_le(T value) {
    value = little_endian(value);
    bytes_.append(reinterpret_cast<const char*>(&value), sizeof value);
  }

  std::string bytes_;
};

/// Parses values from a view of bytes that outlive the Reader.
class Reader {
 public:
  explicit Reader(std::string_view bytes) noexcept : bytes_(bytes) {}
  Reader(std::string&&) = delete;  // would view a destroyed temporary

  std::uint8_t read_u8(const char* what) {
    return static_cast<std::uint8_t>(*take(1, what));
  }
  std::uint32_t read_u32(const char* what) {
    return load_le<std::uint32_t>(take(4, what));
  }
  std::uint64_t read_u64(const char* what) {
    return load_le<std::uint64_t>(take(8, what));
  }
  std::int32_t read_i32(const char* what) {
    return static_cast<std::int32_t>(read_u32(what));
  }
  double read_f64(const char* what) {
    return std::bit_cast<double>(read_u64(what));
  }

  /// A length-prefixed byte string written by Writer::write_bytes or
  /// write_blob, as a view into this Reader's bytes. `max_size` rejects an
  /// implausible length outright; any length beyond the bytes left throws
  /// as truncated.
  std::string_view read_bytes(const char* what,
                              std::uint64_t max_size = (1ull << 32)) {
    const std::uint64_t size = read_u64(what);
    if (size > max_size) {
      throw std::runtime_error(std::string(what) + ": implausible length");
    }
    return {take(size, what), static_cast<std::size_t>(size)};
  }

  /// `size` raw bytes with no length prefix, as a view.
  std::string_view read_raw(std::size_t size, const char* what) {
    return {take(size, what), size};
  }

  /// Reads and checks a header written by Writer::write_header. Each
  /// format reads exactly one version: a foreign magic or any other
  /// version throws std::runtime_error naming the format and the version.
  void read_header(std::string_view magic, std::uint32_t version) {
    const std::string format(magic);
    if (magic.size() > remaining() ||
        bytes_.substr(position_, magic.size()) != magic) {
      throw std::runtime_error(format + ": bad magic (expected " + format +
                               " version " + std::to_string(version) + ")");
    }
    position_ += magic.size();
    const std::uint32_t found = read_u32((format + " version").c_str());
    if (found != version) {
      throw std::runtime_error(format + ": unsupported version " +
                               std::to_string(found) + " (this build reads " +
                               std::to_string(version) + ")");
    }
  }

  /// Reserve room for `count` records of at least `min_width` bytes each,
  /// after checking that the bytes left can hold them: a corrupt count
  /// throws as truncated instead of sizing an allocation.
  template <typename Container>
  void reserve(Container& container, std::uint64_t count,
               std::size_t min_width, const char* what) const {
    if (count > remaining() / min_width) {
      throw std::runtime_error(std::string(what) + ": truncated input");
    }
    container.reserve(static_cast<std::size_t>(count));
  }

  std::size_t remaining() const noexcept { return bytes_.size() - position_; }
  std::size_t position() const noexcept { return position_; }

 private:
  const char* take(std::uint64_t n, const char* what) {
    if (n > remaining()) {
      throw std::runtime_error(std::string(what) + ": truncated input");
    }
    const char* at = bytes_.data() + position_;
    position_ += static_cast<std::size_t>(n);
    return at;
  }

  template <typename T>
  static T load_le(const char* bytes) {
    T value;
    std::memcpy(&value, bytes, sizeof value);
    return little_endian(value);
  }

  std::string_view bytes_;
  std::size_t position_ = 0;
};

/// Stream boundary of a saver: `save(writer)` builds the bytes, then one
/// bulk write hands them to `out`. Throws std::runtime_error naming `what`
/// when the stream fails.
template <typename Save>
void write_stream(std::ostream& out, const char* what, Save&& save) {
  Writer writer;
  save(writer);
  out.write(writer.bytes().data(),
            static_cast<std::streamsize>(writer.bytes().size()));
  if (!out) throw std::runtime_error(std::string(what) + ": write failure");
}

/// Stream boundary of a loader: the bytes left in the (seekable) stream
/// `in`, parsed by `load(reader)`; `in` is left just past the bytes parsed,
/// as a value-by-value stream read would leave it. A string stream already
/// holds its bytes, so they are parsed in place, as a mapped file is; any
/// other stream is copied once in bulk.
template <typename Load>
void read_stream(std::istream& in, const char* what, Load&& load) {
  const std::istream::pos_type start = in.tellg();
  const std::streamoff size = in.seekg(0, std::ios::end).tellg() - start;
  if (start == std::istream::pos_type(-1) || !in) {
    throw std::runtime_error(std::string(what) + ": unreadable stream");
  }
  if (const auto* held = dynamic_cast<const std::stringbuf*>(in.rdbuf())) {
    Reader reader(held->view().substr(static_cast<std::size_t>(start)));
    load(reader);
    in.seekg(start + static_cast<std::streamoff>(reader.position()));
    return;
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(start).read(bytes.data(), size);
  Reader reader(std::string_view(bytes).substr(
      0, static_cast<std::size_t>(in.gcount())));
  load(reader);
  in.seekg(start + static_cast<std::streamoff>(reader.position()));
}

}  // namespace melody::util::binio
