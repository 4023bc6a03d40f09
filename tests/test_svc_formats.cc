// Format-robustness matrix for the persistence and trace surfaces: a
// fuzz-style negative sweep over svc::config_from_trace (mistyped or
// hostile header fields must throw, never misconfigure), malformed
// MLDYSVCK / MLDYMIGR inputs (bad magic, alien version, truncation at
// every prefix), the structured missing-resume-checkpoint error (and a
// resume probe that never blocks on a FIFO), and the build-info report of
// every format version, read back out of real blobs.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <stdexcept>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "svc/config.h"
#include "svc/replay.h"
#include "svc/router.h"
#include "svc/service.h"
#include "svc/trace_log.h"
#include "svc/wire.h"
#include "util/binio.h"
#include "util/build_info.h"
#include "util/json.h"

namespace melody::svc {
namespace {

/// A minimal valid MLDYTRC header; each negative case mutates one field.
/// Flag keys it leaves out keep their flag defaults.
WireObject valid_header() {
  WireObject header;
  header.set("magic", WireValue::of("MLDYTRC"));
  header.set("version", WireValue::of(std::int64_t{kTraceVersion}));
  header.set("proto", WireValue::of(std::int64_t{kProtoVersion}));
  header.set("shards", WireValue::of("2"));
  header.set("workers", WireValue::of("12"));
  header.set("tasks", WireValue::of("8"));
  header.set("runs", WireValue::of("4"));
  header.set("budget", WireValue::of("40"));
  header.set("seed", WireValue::of("2017"));
  header.set("estimator", WireValue::of("melody"));
  header.set("manual-clock", WireValue::of("true"));
  return header;
}

TraceFile trace_with(WireObject header) {
  TraceFile trace;
  trace.header = std::move(header);
  return trace;
}

TEST(ConfigFromTrace, AcceptsTheValidHeader) {
  const ServiceConfig config = config_from_trace(trace_with(valid_header()));
  EXPECT_EQ(config.shards, 2);
  EXPECT_EQ(config.scenario.num_workers, 12);
  EXPECT_TRUE(config.manual_clock);
  ShardedService service(config);  // and it builds
  EXPECT_EQ(service.shard_count(), 2);
}

TEST(ConfigFromTrace, MistypedFieldsThrowInsteadOfMisconfiguring) {
  // Every numeric/boolean/text header field flipped to a hostile kind or
  // spelling must throw — silently adopting a fallback would replay the
  // trace against the wrong deployment. A non-string value is a WireError;
  // a string its flag refuses is std::invalid_argument.
  const struct {
    const char* field;
    WireValue value;
  } cases[] = {
      {"shards", WireValue::of("eight")},
      {"workers", WireValue::of("lots")},
      {"tasks", WireValue::of(true)},
      {"runs", WireValue::of("many")},
      {"budget", WireValue::of("big")},
      {"seed", WireValue::of("hunter2")},
      {"estimator", WireValue::of(std::int64_t{7})},
      {"manual-clock", WireValue::of("maybe")},
      {"batch-min-bids", WireValue::of("three")},
      {"batch-budget", WireValue::of(std::vector<double>{1.0, 2.0})},
      {"queue-capacity", WireValue::of("deep")},
      {"rolling", WireValue::of(std::int64_t{1})},
      {"shards", WireValue::of(std::int64_t{2})},  // v1 spelling: a number
      {"shards", WireValue::of("1e300")},
      {"shards", WireValue::of("nan")},
      {"manual_clock", WireValue::of("true")},  // unknown key (v1 name)
  };
  for (const auto& c : cases) {
    WireObject header = valid_header();
    header.set(c.field, c.value);
    try {
      config_from_trace(trace_with(std::move(header)));
      ADD_FAILURE() << "field " << c.field << " was accepted";
    } catch (const WireError&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(ConfigFromTrace, HostileValuesFailServiceValidation) {
  // Type-correct but semantically poisoned headers parse, then die in
  // config validation when the deployment is built — never under-build.
  const struct {
    const char* field;
    WireValue value;
  } cases[] = {
      {"shards", WireValue::of("-3")},
      {"shards", WireValue::of("1000")},
      {"shards", WireValue::of("4294967298")},  // 2 if narrowed unchecked
      {"workers", WireValue::of("0")},
      {"runs", WireValue::of("-1")},
      {"estimator", WireValue::of("quantum")},
      {"queue-capacity", WireValue::of("-5")},
  };
  for (const auto& c : cases) {
    WireObject header = valid_header();
    header.set(c.field, c.value);
    ServiceConfig config;
    try {
      config = config_from_trace(trace_with(std::move(header)));
    } catch (const std::exception&) {
      continue;  // rejected at parse time: also fine
    }
    EXPECT_THROW(ShardedService service(config), std::exception)
        << "field " << c.field;
  }
}

TEST(ConfigFromTrace, MalformedFaultSpecThrows) {
  WireObject header = valid_header();
  header.set("faults", WireValue::of("no-show=purple"));
  EXPECT_THROW(config_from_trace(trace_with(std::move(header))),
               std::exception);
}

TEST(TraceParsing, RejectsBadHeaderMagicAndVersion) {
  {
    std::istringstream in("{\"magic\":\"MLDYXXX\",\"version\":1}\n");
    EXPECT_THROW(parse_trace(in), std::runtime_error);
  }
  {
    std::istringstream in("{\"magic\":\"MLDYTRC\",\"version\":99}\n");
    EXPECT_THROW(parse_trace(in), std::runtime_error);
  }
  {
    std::istringstream in("");
    EXPECT_THROW(parse_trace(in), std::runtime_error);
  }
}

// ---------------------------------------------- MLDYSVCK / MLDYMIGR --

ServiceConfig small_config() {
  ServiceConfig config;
  config.scenario.num_workers = 10;
  config.scenario.num_tasks = 6;
  config.scenario.runs = 8;
  config.scenario.budget = 30.0;
  config.seed = 2017;
  config.manual_clock = true;
  return config;
}

/// A service with one executed run, so the serialized state is non-trivial.
std::unique_ptr<AuctionService> warm_service() {
  auto service = std::make_unique<AuctionService>(small_config());
  for (int w = 0; w < 10; ++w) {
    Request r;
    r.op = Op::kSubmitBid;
    r.id = w + 1;
    r.worker = "w" + std::to_string(w);
    const Response response = service->apply(r);
    EXPECT_TRUE(response.ok) << response.error;
  }
  return service;
}

TEST(CheckpointFormat, RejectsBadMagicVersionAndTruncation) {
  auto service = warm_service();
  std::ostringstream out;
  service->save_state(out);
  const std::string bytes = out.str();
  ASSERT_GT(bytes.size(), 16u);

  {
    std::string corrupt = bytes;
    corrupt[0] = 'X';  // magic
    std::istringstream in(corrupt);
    AuctionService victim(small_config());
    EXPECT_THROW(victim.load_state(in), std::runtime_error);
  }
  {
    std::string corrupt = bytes;
    corrupt[8] = 99;  // version u32 little-endian low byte
    std::istringstream in(corrupt);
    AuctionService victim(small_config());
    EXPECT_THROW(victim.load_state(in), std::runtime_error);
  }
  // Truncation at every prefix must throw.
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    util::binio::Reader in(std::string_view(bytes).substr(0, keep));
    AuctionService victim(small_config());
    EXPECT_THROW(victim.load_state(in), std::runtime_error)
        << "prefix " << keep << " of " << bytes.size();
  }
}

TEST(MigrationFormat, RoundTripsAndRejectsCorruption) {
  auto service = warm_service();
  std::ostringstream out;
  service->save_migration(out);
  const std::string bytes = out.str();
  ASSERT_GT(bytes.size(), 16u);

  {
    util::binio::Reader in(bytes);
    AuctionService twin(small_config());
    twin.load_migration(in);
    // The envelope carries the session tail a checkpoint drops.
    EXPECT_EQ(twin.records().size(), service->records().size());
  }
  {
    std::string corrupt = bytes;
    corrupt[0] = 'X';
    util::binio::Reader in(corrupt);
    AuctionService victim(small_config());
    EXPECT_THROW(victim.load_migration(in), std::runtime_error);
  }
  {
    std::string corrupt = bytes;
    corrupt[8] = 42;  // version
    util::binio::Reader in(corrupt);
    AuctionService victim(small_config());
    EXPECT_THROW(victim.load_migration(in), std::runtime_error);
  }
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    util::binio::Reader in(std::string_view(bytes).substr(0, keep));
    AuctionService victim(small_config());
    EXPECT_THROW(victim.load_migration(in), std::runtime_error)
        << "prefix " << keep << " of " << bytes.size();
  }
}

// ------------------------------------------------- resume checkpoint --

TEST(ResumeCheckpoint, MissingFileIsAStructuredError) {
  const std::string path = "definitely_missing_dir/nope.ckpt";
  try {
    require_resume_checkpoint(path);
    FAIL() << "expected CheckpointMissingError";
  } catch (const CheckpointMissingError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos)
        << "the message must carry the fix hint";
  }
}

TEST(ResumeCheckpoint, AFifoIsProbedWithoutBlockingThenRefusedByRestore) {
  // The probe must not open the path: a FIFO with no writer would block
  // it. If it ever blocks, open the write end here to release it.
  const std::string fifo = ::testing::TempDir() + "/melody_resume_fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  auto probed = std::async(std::launch::async,
                           [&fifo] { require_resume_checkpoint(fifo); });
  const bool blocked =
      probed.wait_for(std::chrono::seconds(5)) == std::future_status::timeout;
  if (blocked) {
    const int writer = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (writer >= 0) ::close(writer);
  }
  probed.get();
  EXPECT_FALSE(blocked) << "probing a FIFO blocked on open";
  ShardedService service(config_from_trace(trace_with(valid_header())));
  try {
    service.restore(fifo);
    FAIL() << "a FIFO must not restore";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "svc checkpoint: cannot open " + fifo);
  }
  std::remove(fifo.c_str());
}

TEST(ResumeCheckpoint, TraceHeaderPinsTheResumePath) {
  WireObject header = valid_header();
  EXPECT_EQ(resume_path_from_trace(trace_with(header)), "");
  header.set("resume", WireValue::of("state/svc.ckpt"));
  EXPECT_EQ(resume_path_from_trace(trace_with(std::move(header))),
            "state/svc.ckpt");
}

// ------------------------------------------------------- build info --

/// The u32 version field behind an 8-byte magic, read from a real blob.
int blob_version(const std::string& bytes, std::string_view magic) {
  EXPECT_EQ(bytes.substr(0, 8), magic);
  util::binio::Reader in(std::string_view(bytes).substr(8, 4));
  return static_cast<int>(in.read_u32("version"));
}

TEST(BuildInfo, PinsEveryFormatVersion) {
  // Every version build_info reports must be the one its writer actually
  // puts into a blob of that format.
  const util::FormatVersions v = util::format_versions();
  EXPECT_EQ(v.proto, kProtoVersion);

  auto service = warm_service();
  std::ostringstream platform, plain, migration, composed, trace;
  service->platform().save(platform);
  service->save_state(plain);
  service->save_migration(migration);
  ShardedService(small_config()).save_state(composed);
  {
    TraceRecorder recorder(trace);
    recorder.begin_session(small_config());
    recorder.finish();
  }
  EXPECT_EQ(v.platform_checkpoint, blob_version(platform.str(), "MLDYCKPT"));
  EXPECT_EQ(v.service_checkpoint, blob_version(plain.str(), "MLDYSVCK"));
  EXPECT_EQ(v.composed_checkpoint, blob_version(composed.str(), "MLDYSVCK"));
  EXPECT_EQ(v.migration, blob_version(migration.str(), "MLDYMIGR"));
  const std::string header = trace.str().substr(0, trace.str().find('\n'));
  const util::json::Value parsed = util::json::parse(header);
  ASSERT_NE(parsed.find("version"), nullptr) << header;
  EXPECT_EQ(v.trace, static_cast<int>(parsed.find("version")->as_number()));
  // MLDYTRC v2: the header carries ServiceConfig::to_flags() as strings.
  EXPECT_EQ(v.trace, 2);
  ASSERT_NE(parsed.find("workers"), nullptr) << header;
  EXPECT_TRUE(parsed.find("workers")->is_string()) << header;

  const std::string line = util::build_info_line("melody_test");
  EXPECT_EQ(line.find("melody_test "), 0u);
  for (const char* tag : {"proto=", "platform=", "checkpoint=", "composed=",
                          "trace=", "migration="}) {
    EXPECT_NE(line.find(tag), std::string::npos) << tag;
  }
  EXPECT_FALSE(util::build_git_sha().empty());
}

}  // namespace
}  // namespace melody::svc
