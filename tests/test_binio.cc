// Edge cases of the little-endian checkpoint codec (util::binio::Reader
// and Writer): zero-length payloads, the max_size guard on length-prefixed
// reads, hostile lengths and counts that must not size an allocation (in
// the codec itself and inside the MLDYSVCK and MLDYCKPT bodies), format
// headers, truncation error paths for every reader, exact round-trips of
// extreme values, blobs written in place and read as sub-views, and the
// one-copy stream adapters (the checkpoint formats depend on every one of
// these behaviors).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/melody_estimator.h"
#include "sim/platform.h"
#include "svc/router.h"
#include "util/binio.h"
#include "util/rng.h"

namespace {
// The largest single allocation since the last reset: the hostile-length
// cases assert that a length or count read from the input never sizes an
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

// A Reader views bytes it does not own: it cannot be built from a
// temporary string.
static_assert(!std::is_constructible_v<Reader, std::string>);
static_assert(std::is_constructible_v<Reader, const std::string&>);

TEST(BinIo, ScalarRoundTripsAtExtremes) {
  Writer out;
  out.write_u8(0);
  out.write_u8(0xff);
  out.write_u32(0);
  out.write_u32(std::numeric_limits<std::uint32_t>::max());
  out.write_u64(0);
  out.write_u64(std::numeric_limits<std::uint64_t>::max());
  out.write_i32(std::numeric_limits<std::int32_t>::min());
  out.write_i32(-1);

  Reader in(out.bytes());
  EXPECT_EQ(in.read_u8("a"), 0);
  EXPECT_EQ(in.read_u8("b"), 0xff);
  EXPECT_EQ(in.read_u32("c"), 0u);
  EXPECT_EQ(in.read_u32("d"), std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(in.read_u64("e"), 0u);
  EXPECT_EQ(in.read_u64("f"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(in.read_i32("g"), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(in.read_i32("h"), -1);
}

TEST(BinIo, LittleEndianLayoutIsFixed) {
  Writer out;
  out.write_u32(0x0a0b0c0d);
  const std::string& bytes = out.bytes();
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
    Writer out;
    out.write_f64(value);
    Reader in(out.bytes());
    const double back = in.read_f64("f64");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back),
              std::bit_cast<std::uint64_t>(value))
        << value;
  }
  // -0.0 keeps its sign (bit equality above already implies it, but the
  // signbit is what checkpoint consumers would actually observe).
  Writer out;
  out.write_f64(-0.0);
  Reader in(out.bytes());
  EXPECT_TRUE(std::signbit(in.read_f64("f64")));
}

TEST(BinIo, ZeroLengthBytesRoundTrip) {
  Writer out;
  out.write_bytes("");
  out.write_u8(0x5a);  // sentinel right behind the empty payload
  EXPECT_EQ(out.bytes().size(), 9u);  // u64 length prefix + 1 sentinel
  Reader in(out.bytes());
  EXPECT_EQ(in.read_bytes("empty"), "");
  EXPECT_EQ(in.read_u8("sentinel"), 0x5a);
}

TEST(BinIo, BytesWithEmbeddedNulsRoundTrip) {
  const std::string payload("a\0b\0\0c", 6);
  Writer out;
  out.write_bytes(payload);
  Reader in(out.bytes());
  EXPECT_EQ(in.read_bytes("nuls"), payload);
}

TEST(BinIo, MaxSizeGuardRejectsImplausibleLengths) {
  Writer out;
  out.write_bytes("12345");
  Reader at_limit(out.bytes());
  EXPECT_EQ(at_limit.read_bytes("limit", 5), "12345");  // boundary passes

  Reader over_limit(out.bytes());
  try {
    over_limit.read_bytes("blob", 4);
    FAIL() << "length above max_size must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("blob"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos);
  }

  // A corrupt length field must be rejected before any allocation happens.
  Writer corrupt;
  corrupt.write_u64(std::numeric_limits<std::uint64_t>::max());
  Reader in(corrupt.bytes());
  EXPECT_THROW(in.read_bytes("corrupt"), std::runtime_error);
}

TEST(BinIo, HostileLengthAllocatesOnlyAsBytesArrive) {
  // 2 GiB promised (under the default max_size), three bytes present, and
  // lengths that would wrap a position-plus-length sum: each read fails
  // as truncated and allocates nothing for the payload.
  for (const std::uint64_t claimed :
       {std::uint64_t{1} << 31, std::uint64_t{4},
        std::numeric_limits<std::uint64_t>::max() - 4}) {
    Writer hostile;
    hostile.write_u64(claimed);
    hostile.write_raw("abc");
    Reader in(hostile.bytes());
    g_largest_allocation = 0;
    try {
      in.read_bytes("hostile", std::numeric_limits<std::uint64_t>::max());
      ADD_FAILURE() << "length " << claimed << " over 3 bytes must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
    }
    EXPECT_LE(g_largest_allocation.load(), std::size_t{4096}) << claimed;
  }

  // A payload of several MiB round-trips as a view into the buffer: no
  // copy, whatever its size.
  std::string big((3u << 20) + 5, 'x');
  big[1u << 20] = 'y';
  Writer out;
  out.write_bytes(big);
  Reader in(out.bytes());
  g_largest_allocation = 0;
  const std::string_view view = in.read_bytes("big");
  EXPECT_EQ(g_largest_allocation.load(), 0u);
  EXPECT_EQ(view, big);
  EXPECT_EQ(view.data(), out.bytes().data() + 8);

  // A count reserves only once the bytes left can hold its records.
  Writer records;
  for (int k = 0; k < 3; ++k) records.write_f64(k);
  Reader counted(records.bytes());
  std::vector<double> fits;
  counted.reserve(fits, 3, sizeof(double), "records");
  EXPECT_GE(fits.capacity(), 3u);
  std::vector<double> hostile_count;
  g_largest_allocation = 0;
  for (const std::uint64_t count :
       {std::uint64_t{4}, std::uint64_t{100'000'000'000'000},
        std::numeric_limits<std::uint64_t>::max()}) {
    EXPECT_THROW(counted.reserve(hostile_count, count, sizeof(double), "n"),
                 std::runtime_error)
        << count;
  }
  EXPECT_LE(g_largest_allocation.load(), std::size_t{4096});
  EXPECT_EQ(hostile_count.capacity(), 0u);
}

TEST(BinIo, ReadHeaderNamesFormatAndVersion) {
  Writer good;
  good.write_header("MLDYTEST", 3);
  EXPECT_EQ(good.bytes().size(), 12u);
  Reader in(good.bytes());
  in.read_header("MLDYTEST", 3);  // consumes exactly the header
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_THROW(in.read_u8("eof"), std::runtime_error);

  const auto message = [](const std::string& bytes) {
    Reader reader(bytes);
    try {
      reader.read_header("MLDYTEST", 3);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  Writer older;
  older.write_header("MLDYTEST", 2);
  EXPECT_EQ(message(older.bytes()),
            "MLDYTEST: unsupported version 2 (this build reads 3)");
  EXPECT_EQ(message(std::string("MLDYXXXX\x03\0\0\0", 12)),
            "MLDYTEST: bad magic (expected MLDYTEST version 3)");
  EXPECT_EQ(message("MLDY"),
            "MLDYTEST: bad magic (expected MLDYTEST version 3)");
  const std::string truncated = message("MLDYTEST\x03");
  EXPECT_NE(truncated.find("truncated"), std::string::npos) << truncated;
}

TEST(BinIo, TruncatedInputThrowsWithContextForEveryReader) {
  {
    Reader empty(std::string_view{});
    try {
      empty.read_u8("platform header");
      FAIL() << "read_u8 of empty input must throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("platform header"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
    }
  }
  {
    Reader three_bytes(std::string_view("abc"));
    EXPECT_THROW(three_bytes.read_u32("u32"), std::runtime_error);
  }
  {
    Reader seven_bytes(std::string_view("abcdefg"));
    EXPECT_THROW(seven_bytes.read_u64("u64"), std::runtime_error);
    Reader again(std::string_view("abcdefg"));
    EXPECT_THROW(again.read_f64("f64"), std::runtime_error);
  }
  {
    Reader empty(std::string_view{});
    EXPECT_THROW(empty.read_i32("i32"), std::runtime_error);
  }
  {
    // Length prefix promises 8 bytes, the input carries 3.
    Writer short_payload;
    short_payload.write_u64(8);
    short_payload.write_raw("abc");
    Reader in(short_payload.bytes());
    EXPECT_THROW(in.read_bytes("payload"), std::runtime_error);
  }
  {
    // Truncation inside the length prefix itself.
    Reader half_prefix(std::string_view("abcd"));
    EXPECT_THROW(half_prefix.read_bytes("prefix"), std::runtime_error);
  }
  {
    Reader raw(std::string_view("ab"));
    EXPECT_THROW(raw.read_raw(3, "raw"), std::runtime_error);
  }
}

TEST(BinIo, ReadersConsumeExactlyTheirWidth) {
  Writer out;
  out.write_u32(7);
  out.write_u64(9);
  out.write_f64(2.5);
  out.write_bytes("xy");
  Reader in(out.bytes());
  EXPECT_EQ(in.read_u32("a"), 7u);
  EXPECT_EQ(in.position(), 4u);
  EXPECT_EQ(in.read_u64("b"), 9u);
  EXPECT_EQ(in.read_f64("c"), 2.5);
  EXPECT_EQ(in.read_bytes("d"), "xy");
  // Nothing left over: the next read hits the end, not stale bytes.
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_THROW(in.read_u8("eof"), std::runtime_error);
}

TEST(BinIo, BlobWrittenInPlaceMatchesWriteBytes) {
  Writer body;
  body.write_header("MLDYBODY", 1);
  body.write_f64(0.25);
  Writer copied;
  copied.write_u8(1);
  copied.write_bytes(body.bytes());
  copied.write_u8(2);
  Writer in_place;
  in_place.write_u8(1);
  in_place.write_blob([](Writer& blob) {
    blob.write_header("MLDYBODY", 1);
    blob.write_f64(0.25);
  });
  in_place.write_u8(2);
  EXPECT_EQ(in_place.bytes(), copied.bytes());

  Reader in(in_place.bytes());
  EXPECT_EQ(in.read_u8("before"), 1);
  Reader blob(in.read_bytes("blob"));
  blob.read_header("MLDYBODY", 1);
  EXPECT_EQ(blob.read_f64("body"), 0.25);
  EXPECT_EQ(blob.remaining(), 0u);
  EXPECT_EQ(in.read_u8("after"), 2);
}

/// Two adapter writes, then two adapter reads that must each stop at the
/// bytes they parsed, and a third that finds none left.
void expect_adapters_stop_at_the_parsed_bytes(std::iostream& stream) {
  write_stream(stream, "first", [](Writer& out) { out.write_u32(11); });
  write_stream(stream, "second", [](Writer& out) { out.write_u64(12); });
  std::uint32_t first = 0;
  std::uint64_t second = 0;
  stream.seekg(0);
  read_stream(stream, "first",
              [&](Reader& in) { first = in.read_u32("first"); });
  read_stream(stream, "second",
              [&](Reader& in) { second = in.read_u64("second"); });
  EXPECT_EQ(first, 11u);
  EXPECT_EQ(second, 12u);
  EXPECT_THROW(read_stream(stream, "third",
                           [](Reader& in) { in.read_u8("third"); }),
               std::runtime_error);
}

TEST(BinIo, StreamAdaptersStopAtTheParsedBytes) {
  // A string stream is parsed in place; a file stream is copied first.
  std::stringstream in_memory;
  expect_adapters_stop_at_the_parsed_bytes(in_memory);
  EXPECT_EQ(in_memory.str().size(), 12u);
  const std::string path = ::testing::TempDir() + "/melody_binio_stream";
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary |
                                std::ios::trunc);
    expect_adapters_stop_at_the_parsed_bytes(file);
  }
  std::remove(path.c_str());
}

// ------------------------------------------ hostile lengths in bodies --

void put_u64(std::string& bytes, std::size_t at, std::uint64_t value) {
  for (std::size_t b = 0; b < 8; ++b, value >>= 8) {
    bytes[at + b] = static_cast<char>(value & 0xff);
  }
}

std::uint64_t get_u64(const std::string& bytes, std::size_t at) {
  Reader in(std::string_view(bytes).substr(at, 8));
  return in.read_u64("u64");
}

/// Rewrites the u64 length at `at` to 2^64 - 1 and to one more than the
/// bytes left behind it; `load` must throw std::runtime_error on each
/// without allocating the length it claims.
template <typename Load>
void expect_hostile_lengths_refused(const std::string& bytes, std::size_t at,
                                    const char* what, Load load) {
  for (const std::uint64_t claimed :
       {std::numeric_limits<std::uint64_t>::max(),
        std::uint64_t{bytes.size() - at - 8 + 1}}) {
    std::string hostile = bytes;
    put_u64(hostile, at, claimed);
    g_largest_allocation = 0;
    EXPECT_THROW(load(hostile), std::runtime_error) << what << " " << claimed;
    EXPECT_LT(g_largest_allocation.load(), claimed) << what << " " << claimed;
  }
}

TEST(BinIo, HostileShardBlobLengthInComposedCheckpointAllocatesNothing) {
  svc::ServiceConfig config;
  config.scenario.num_workers = 40;
  config.scenario.num_tasks = 20;
  config.scenario.runs = 6;
  config.scenario.budget = 60.0;
  config.shards = 2;
  config.manual_clock = true;
  Writer out;
  svc::ShardedService(config).save_state(out);
  const std::string bytes = out.take();
  std::ostringstream streamed;  // the stream adapter writes the same bytes
  svc::ShardedService(config).save_state(streamed);
  ASSERT_EQ(streamed.str(), bytes);
  // MLDYSVCK header (12 bytes) | u32 shard count | u64 length + body, x2.
  const std::size_t first = 12 + 4;
  const std::size_t second = first + 8 + get_u64(bytes, first);
  ASSERT_LT(second + 8, bytes.size());
  svc::ShardedService target(config);
  for (const std::size_t at : {first, second}) {
    expect_hostile_lengths_refused(
        bytes, at, "shard blob", [&target](const std::string& hostile) {
          Reader in(hostile);
          target.load_state(in);
        });
  }
}

TEST(BinIo, HostileEstimatorBlobLengthInPlatformSnapshotAllocatesNothing) {
  sim::LongTermScenario scenario;
  scenario.num_workers = 12;
  scenario.num_tasks = 8;
  scenario.runs = 12;
  scenario.budget = 40.0;
  estimators::MelodyEstimatorConfig tracker;
  tracker.reestimation_period = 100;  // history grows, no refit
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker);
  util::Rng population_rng(5);
  sim::Platform platform(
      scenario, mechanism, estimator,
      sim::sample_population(scenario.population_config(), population_rng), 7);
  for (int r = 0; r < 10; ++r) platform.step();
  Writer out;
  platform.save(out);
  const std::string bytes = out.take();
  Writer blob;
  estimator.save_to(blob);
  // The snapshot ends with the estimator blob, then an empty withdrawn set.
  const std::size_t at = bytes.size() - 8 - blob.bytes().size() - 8;
  ASSERT_EQ(get_u64(bytes, at), blob.bytes().size());
  estimators::MelodyEstimator target_estimator(tracker);
  sim::Platform target(scenario, mechanism, target_estimator, {}, 7);
  expect_hostile_lengths_refused(
      bytes, at, "estimator blob", [&target](const std::string& hostile) {
        Reader in(hostile);
        target.load(in);
      });
}

}  // namespace
}  // namespace melody::util::binio
