// The read-only mapping every state file is parsed from (util::MappedFile):
// what it refuses and how, without ever blocking on a FIFO; that an empty
// or short file reaches the format's own header check; and that a
// checkpoint replaced by rename while it is mapped still parses as the
// bytes that were mapped.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <string>
#include <string_view>

#include "svc/config.h"
#include "svc/protocol.h"
#include "svc/router.h"
#include "util/atomic_file.h"
#include "util/binio.h"

namespace melody::util {
namespace {

using namespace std::chrono_literals;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/melody_mapped_" + name;
}

/// The message MappedFile(path, "checkpoint") throws, or "" if it maps.
std::string refusal(const std::string& path) {
  try {
    const MappedFile file(path, "checkpoint");
    return "";
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

svc::ServiceConfig small_config() {
  svc::ServiceConfig config;
  config.scenario.num_workers = 12;
  config.scenario.num_tasks = 8;
  config.scenario.runs = 4;
  config.scenario.budget = 40.0;
  config.seed = 2017;
  config.manual_clock = true;
  config.shards = 2;
  return config;
}

/// What ShardedService::restore throws for `path`, or "" if it loads.
std::string restore_refusal(const std::string& path) {
  svc::ShardedService service(small_config());
  try {
    service.restore(path);
    return "";
  } catch (const std::runtime_error& e) {
    return e.what();
  }
}

std::string composed_checkpoint(const svc::ShardedService& service) {
  binio::Writer out;
  service.save_state(out);
  return out.take();
}

TEST(MappedFile, MapsAWholeFileAndAnEmptyOneAsNoBytes) {
  const std::string path = temp_path("whole.bin");
  const std::string bytes("MLDY\0\1\2\3 and more", 18);
  write_file_atomically(path, bytes);
  {
    const MappedFile file(path, "checkpoint");
    EXPECT_EQ(file.bytes(), bytes);
  }
  write_file_atomically(path, std::string_view());
  {
    const MappedFile file(path, "checkpoint");
    EXPECT_TRUE(file.bytes().empty());
  }
  std::remove(path.c_str());
}

TEST(MappedFile, MissingPathAndDirectoryAreRefusedNamingThePath) {
  const std::string missing = temp_path("missing/nope.ckpt");
  EXPECT_EQ(refusal(missing), "checkpoint: cannot open " + missing);
  const std::string dir = temp_path("dir");
  std::filesystem::create_directories(dir);
  EXPECT_EQ(refusal(dir), "checkpoint: cannot open " + dir);
  std::filesystem::remove(dir);
}

TEST(MappedFile, AFifoIsRefusedWithoutBlocking) {
  // Opening a FIFO for reading blocks until a writer opens it, so the
  // refusal must come before any open. If it ever blocks, open the write
  // end here to release the reader, then fail.
  const std::string fifo = temp_path("fifo");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  auto refused = std::async(std::launch::async, [&fifo] {
    return refusal(fifo);
  });
  const bool blocked = refused.wait_for(5s) == std::future_status::timeout;
  if (blocked) {
    const int writer = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (writer >= 0) ::close(writer);
  }
  const std::string what = refused.get();
  EXPECT_FALSE(blocked) << "mapping a FIFO blocked on open";
  EXPECT_EQ(what, "checkpoint: cannot open " + fifo);
  std::remove(fifo.c_str());
}

TEST(MappedFile, EmptyAndShortFilesFailTheFormatHeaderCheck) {
  const std::string path = temp_path("short.ckpt");
  write_file_atomically(path, std::string_view());
  EXPECT_NE(restore_refusal(path).find("MLDYSVCK: bad magic"),
            std::string::npos)
      << restore_refusal(path);
  write_file_atomically(path, "MLDYSV");  // cut inside the magic
  EXPECT_NE(restore_refusal(path).find("MLDYSVCK: bad magic"),
            std::string::npos)
      << restore_refusal(path);
  write_file_atomically(path, "MLDYSVCK\x02");  // cut inside the version
  EXPECT_EQ(restore_refusal(path), "MLDYSVCK version: truncated input");
  std::remove(path.c_str());
}

TEST(MappedFile, ACheckpointRenamedOverWhileMappedParsesAsTheOldBytes) {
  // Every writer renames a new inode into place, so a mapping taken before
  // the rename keeps the file it mapped.
  const std::string path = temp_path("renamed.ckpt");
  svc::ShardedService source(small_config());
  const std::string old_bytes = composed_checkpoint(source);
  write_file_atomically(path, old_bytes);

  const MappedFile file(path, "svc checkpoint");
  for (int w = 0; w < 12; ++w) {  // one run per shard changes the state
    svc::Request bid;
    bid.op = svc::Op::kSubmitBid;
    bid.id = w + 1;
    bid.worker = "w" + std::to_string(w);
    ASSERT_EQ(source.submit(bid, [](const svc::Response&) {}),
              svc::PushResult::kOk);
  }
  while (source.poll_once(0ns)) {
  }
  const std::string new_bytes = composed_checkpoint(source);
  ASSERT_NE(new_bytes, old_bytes);
  write_file_atomically(path, new_bytes);

  EXPECT_EQ(file.bytes(), old_bytes);
  svc::ShardedService restored(small_config());
  binio::Reader in(file.bytes());
  restored.load_state(in);
  EXPECT_EQ(composed_checkpoint(restored), old_bytes);
  EXPECT_EQ(MappedFile(path, "svc checkpoint").bytes(), new_bytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace melody::util
