// Edge cases of the little-endian checkpoint primitives: zero-length
// payloads, the max_size guard on length-prefixed reads, hostile lengths
// that must not size an allocation, format headers, truncation error paths
// for every reader, and exact round-trips of extreme values (the
// checkpoint formats depend on every one of these behaviors).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/binio.h"

namespace {
// The largest single allocation since the last reset: the hostile-length
// cases assert that a length or count read from a stream never sizes an
// allocation ahead of the bytes behind it.
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest_allocation.compare_exchange_weak(seen, size)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace melody::util::binio {
namespace {

TEST(BinIo, ScalarRoundTripsAtExtremes) {
  std::stringstream buffer;
  write_u8(buffer, 0);
  write_u8(buffer, 0xff);
  write_u32(buffer, 0);
  write_u32(buffer, std::numeric_limits<std::uint32_t>::max());
  write_u64(buffer, 0);
  write_u64(buffer, std::numeric_limits<std::uint64_t>::max());
  write_i32(buffer, std::numeric_limits<std::int32_t>::min());
  write_i32(buffer, -1);

  EXPECT_EQ(read_u8(buffer, "a"), 0);
  EXPECT_EQ(read_u8(buffer, "b"), 0xff);
  EXPECT_EQ(read_u32(buffer, "c"), 0u);
  EXPECT_EQ(read_u32(buffer, "d"), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(read_u64(buffer, "e"), 0u);
  EXPECT_EQ(read_u64(buffer, "f"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(read_i32(buffer, "g"), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(read_i32(buffer, "h"), -1);
}

TEST(BinIo, LittleEndianLayoutIsFixed) {
  std::ostringstream buffer;
  write_u32(buffer, 0x0a0b0c0d);
  const std::string bytes = buffer.str();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x0d);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0x0c);
  EXPECT_EQ(static_cast<unsigned char>(bytes[2]), 0x0b);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x0a);
}

TEST(BinIo, DoubleSpecialsRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::min(),
                           1.8656653187601029};
  for (const double value : values) {
    std::stringstream buffer;
    write_f64(buffer, value);
    const double back = read_f64(buffer, "f64");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value))
        << value;
  }
  // -0.0 keeps its sign (bit equality above already implies it, but the
  // signbit is what checkpoint consumers would actually observe).
  std::stringstream buffer;
  write_f64(buffer, -0.0);
  EXPECT_TRUE(std::signbit(read_f64(buffer, "f64")));
}

TEST(BinIo, ZeroLengthBytesRoundTrip) {
  std::stringstream buffer;
  write_bytes(buffer, "");
  write_u8(buffer, 0x5a);  // sentinel right behind the empty payload
  EXPECT_EQ(buffer.str().size(), 9u);  // u64 length prefix + 1 sentinel
  EXPECT_EQ(read_bytes(buffer, "empty"), "");
  EXPECT_EQ(read_u8(buffer, "sentinel"), 0x5a);
}

TEST(BinIo, BytesWithEmbeddedNulsRoundTrip) {
  const std::string payload("a\0b\0\0c", 6);
  std::stringstream buffer;
  write_bytes(buffer, payload);
  EXPECT_EQ(read_bytes(buffer, "nuls"), payload);
}

TEST(BinIo, MaxSizeGuardRejectsImplausibleLengths) {
  std::stringstream at_limit;
  write_bytes(at_limit, "12345");
  EXPECT_EQ(read_bytes(at_limit, "limit", 5), "12345");  // boundary passes

  std::stringstream over_limit;
  write_bytes(over_limit, "12345");
  try {
    read_bytes(over_limit, "blob", 4);
    FAIL() << "length above max_size must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("blob"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos);
  }

  // A corrupt length field must be rejected BEFORE any allocation happens.
  std::stringstream corrupt;
  write_u64(corrupt, std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(read_bytes(corrupt, "corrupt"), std::runtime_error);
}

TEST(BinIo, HostileLengthAllocatesOnlyAsBytesArrive) {
  // 2 GiB promised (under the default max_size), three bytes present: the
  // read fails as truncated after at most one 1 MiB chunk.
  std::stringstream hostile;
  write_u64(hostile, 1ull << 31);
  hostile << "abc";
  g_largest_allocation = 0;
  EXPECT_THROW(read_bytes(hostile, "hostile"), std::runtime_error);
  EXPECT_LE(g_largest_allocation.load(), std::size_t{2} << 20);

  // A payload longer than one chunk still round-trips exactly.
  std::string big((3u << 20) + 5, 'x');
  big[1u << 20] = 'y';
  std::stringstream buffer;
  write_bytes(buffer, big);
  EXPECT_EQ(read_bytes(buffer, "big"), big);

  // reserve_bounded caps what a claimed count may reserve.
  std::vector<double> records;
  g_largest_allocation = 0;
  reserve_bounded(records, 100'000'000'000'000ull);
  EXPECT_LE(g_largest_allocation.load(), 4096 * sizeof(double));
  reserve_bounded(records, 3);
  EXPECT_GE(records.capacity(), 3u);
}

TEST(BinIo, ReadHeaderNamesFormatAndVersion) {
  std::stringstream good;
  write_header(good, "MLDYTEST", 3);
  EXPECT_EQ(good.str().size(), 12u);
  read_header(good, "MLDYTEST", 3);  // consumes exactly the header
  EXPECT_THROW(read_u8(good, "eof"), std::runtime_error);

  const auto message = [](const std::string& bytes) {
    std::istringstream in(bytes);
    try {
      read_header(in, "MLDYTEST", 3);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  std::stringstream older;
  write_header(older, "MLDYTEST", 2);
  EXPECT_EQ(message(older.str()),
            "MLDYTEST: unsupported version 2 (this build reads 3)");
  EXPECT_EQ(message("MLDYXXXX\x03\0\0\0"),
            "MLDYTEST: bad magic (expected MLDYTEST version 3)");
  EXPECT_EQ(message("MLDY"),
            "MLDYTEST: bad magic (expected MLDYTEST version 3)");
  const std::string truncated = message("MLDYTEST\x03");
  EXPECT_NE(truncated.find("truncated"), std::string::npos) << truncated;
}

TEST(BinIo, TruncatedInputThrowsWithContextForEveryReader) {
  {
    std::istringstream empty;
    try {
      read_u8(empty, "platform header");
      FAIL() << "read_u8 of empty stream must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("platform header"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
    }
  }
  {
    std::istringstream three_bytes("abc");
    EXPECT_THROW(read_u32(three_bytes, "u32"), std::runtime_error);
  }
  {
    std::istringstream seven_bytes("abcdefg");
    EXPECT_THROW(read_u64(seven_bytes, "u64"), std::runtime_error);
    std::istringstream again("abcdefg");
    EXPECT_THROW(read_f64(again, "f64"), std::runtime_error);
  }
  {
    std::istringstream empty;
    EXPECT_THROW(read_i32(empty, "i32"), std::runtime_error);
  }
  {
    // Length prefix promises 8 bytes, stream carries 3.
    std::stringstream short_payload;
    write_u64(short_payload, 8);
    short_payload << "abc";
    EXPECT_THROW(read_bytes(short_payload, "payload"), std::runtime_error);
  }
  {
    // Truncation inside the length prefix itself.
    std::istringstream half_prefix("abcd");
    EXPECT_THROW(read_bytes(half_prefix, "prefix"), std::runtime_error);
  }
}

TEST(BinIo, ReadersConsumeExactlyTheirWidth) {
  std::stringstream buffer;
  write_u32(buffer, 7);
  write_u64(buffer, 9);
  write_f64(buffer, 2.5);
  write_bytes(buffer, "xy");
  EXPECT_EQ(read_u32(buffer, "a"), 7u);
  EXPECT_EQ(read_u64(buffer, "b"), 9u);
  EXPECT_EQ(read_f64(buffer, "c"), 2.5);
  EXPECT_EQ(read_bytes(buffer, "d"), "xy");
  // Nothing left over: the next read hits clean EOF, not stale bytes.
  EXPECT_THROW(read_u8(buffer, "eof"), std::runtime_error);
}

}  // namespace
}  // namespace melody::util::binio
