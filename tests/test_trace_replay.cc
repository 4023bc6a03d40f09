// Record/replay end to end over the real epoll front end: a 256-connection
// traced session against an 8-shard faulted deployment with a mid-trace
// checkpoint, a kill (event-loop stop + drain), a resumed second session
// recording its own trace — and both traces replaying with ZERO response
// diffs at 1, 2, and 8 worker threads. This is the PR's headline contract:
// the single event-loop thread makes submission order the only order, so a
// trace plus a manual clock pins every byte the service ever sent.
//
// Also here (real sockets, so not tier-1): the stats op surfacing the
// event loop's own tallies (loop_* fields + live connection gauge).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/fault.h"
#include "svc/config.h"
#include "svc/event_loop.h"
#include "svc/protocol.h"
#include "svc/replay.h"
#include "svc/router.h"
#include "svc/trace_log.h"
#include "util/thread_pool.h"

namespace melody::svc {
namespace {

/// 8 shards over 42 workers (remainder split), faults on, manual clock:
/// the deployment the acceptance criteria name.
ServiceConfig traced_config() {
  ServiceConfig config;
  config.scenario.num_workers = 42;
  config.scenario.num_tasks = 30;
  config.scenario.runs = 1000;
  config.scenario.budget = 120.0;
  config.seed = 2017;
  config.manual_clock = true;
  config.shards = 8;
  config.faults = sim::FaultPlan::parse("no-show=0.05,drop=0.1");
  return config;
}

/// A served deployment on an ephemeral port with a TraceRecorder attached,
/// the event loop running on its own thread until stop().
struct TracedServer {
  explicit TracedServer(ServiceConfig config, std::ostream& trace_out,
                        const std::string& resume_path = "")
      : service(std::move(config)), recorder(trace_out) {
    if (!resume_path.empty()) service.restore(resume_path);
    EventLoopOptions options;
    options.port = 0;
    options.should_stop = [this] { return stop_flag.load(); };
    options.recorder = &recorder;
    front = std::make_unique<EventLoop>(service, options);
    front->listen();
    service.start();
    thread = std::thread([this] { stats = front->run(); });
  }

  ~TracedServer() {
    stop();
    if (thread.joinable()) thread.join();
  }

  /// Kill: stop the loop (drain), join, finalize shards, publish the trace.
  void stop() {
    stop_flag.store(true);
    if (thread.joinable()) thread.join();
    service.finalize();
    recorder.finish();
  }

  int port() const { return front->actual_port(); }

  ShardedService service;
  TraceRecorder recorder;
  std::unique_ptr<EventLoop> front;
  std::thread thread;
  std::atomic<bool> stop_flag{false};
  EventLoopStats stats{};
};

int connect_client(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
      0);
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

void send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(fd, text.data() + sent, text.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (true) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n <= 0) return {};
    if (c == '\n') return line;
    line += c;
  }
}

Request bid_for(int worker, std::int64_t id) {
  Request r;
  r.op = Op::kSubmitBid;
  r.id = id;
  r.worker = "w" + std::to_string(worker);
  return r;
}

/// One client: a handful of pipelined requests (bids + a query), all
/// answered before the socket closes so every frame lands in the trace.
void run_client(int port, int client, int requests) {
  const int fd = connect_client(port);
  std::string burst;
  for (int k = 0; k < requests; ++k) {
    const int worker = (client + k * 37) % 42;
    burst += format_request(bid_for(worker, client * 100 + k + 1)) + "\n";
  }
  send_all(fd, burst);
  for (int k = 0; k < requests; ++k) {
    const std::string line = read_line(fd);
    ASSERT_FALSE(line.empty()) << "client " << client << " response " << k;
  }
  ::close(fd);
}

/// Replay `trace` (optionally restoring `resume_path` first) at the given
/// worker-thread count and assert zero diffs.
void expect_clean_replay(const TraceFile& trace, int threads,
                         const std::string& resume_path = "") {
  util::set_shared_thread_count(threads);
  ShardedService service(config_from_trace(trace));
  if (!resume_path.empty()) service.restore(resume_path);
  const ReplayResult result = replay_trace(trace, service);
  for (const FrameDiff& diff : result.diffs) {
    ADD_FAILURE() << "threads=" << threads << ": " << format_diff(diff);
  }
  EXPECT_TRUE(result.clean()) << "threads=" << threads;
  EXPECT_GT(result.compared, 0u);
  util::set_shared_thread_count(1);
}

// The acceptance scenario: 256 traced connections, faults on, an explicit
// mid-trace checkpoint, a kill, a resume recording a second trace — and
// both traces replay byte-clean at 1/2/8 threads.
TEST(TraceReplayE2E, KilledAndResumedTracedSessionReplaysCleanAt128Threads) {
  const std::string checkpoint =
      testing::TempDir() + "trace_replay_e2e.ckpt";
  const std::string resume_copy = checkpoint + ".frozen";
  std::remove(checkpoint.c_str());
  std::remove(resume_copy.c_str());

  constexpr int kClients = 256;
  std::ostringstream trace1_bytes;
  {
    TracedServer server(traced_config(), trace1_bytes);
    {
      // Wave 1: 128 concurrent clients, 4 requests each.
      std::vector<std::thread> clients;
      clients.reserve(kClients / 2);
      for (int c = 0; c < kClients / 2; ++c) {
        clients.emplace_back(
            [&server, c] { run_client(server.port(), c, 4); });
      }
      for (std::thread& t : clients) t.join();
    }
    {
      // Mid-trace checkpoint through the wire, like any other client.
      const int fd = connect_client(server.port());
      Request ckpt;
      ckpt.op = Op::kCheckpoint;
      ckpt.id = 77777;
      ckpt.path = checkpoint;
      send_all(fd, format_request(ckpt) + "\n");
      const Response response = parse_response(read_line(fd));
      ASSERT_TRUE(response.ok) << response.error;
      ::close(fd);
    }
    {
      // Wave 2: the other 128 clients land after the checkpoint, so the
      // first trace's tail diverges from the checkpointed state.
      std::vector<std::thread> clients;
      clients.reserve(kClients / 2);
      for (int c = kClients / 2; c < kClients; ++c) {
        clients.emplace_back(
            [&server, c] { run_client(server.port(), c, 4); });
      }
      for (std::thread& t : clients) t.join();
    }
    server.stop();  // the kill: drain, join, publish the trace
    EXPECT_GE(server.stats.accepted,
              static_cast<std::uint64_t>(kClients + 1));
  }

  // Freeze the checkpoint: replaying trace 1 re-executes its checkpoint op
  // against the same path (writing bit-identical bytes); the resume must
  // not depend on that ordering.
  {
    std::ifstream src(checkpoint, std::ios::binary);
    ASSERT_TRUE(src.good());
    std::ofstream dst(resume_copy, std::ios::binary | std::ios::trunc);
    dst << src.rdbuf();
  }

  // Resume from the mid-trace checkpoint and record a second session.
  std::ostringstream trace2_bytes;
  {
    TracedServer server(traced_config(), trace2_bytes, resume_copy);
    std::vector<std::thread> clients;
    clients.reserve(64);
    for (int c = 0; c < 64; ++c) {
      clients.emplace_back(
          [&server, c] { run_client(server.port(), c, 3); });
    }
    for (std::thread& t : clients) t.join();
    server.stop();
  }

  std::istringstream trace1_in(trace1_bytes.str());
  const TraceFile trace1 = parse_trace(trace1_in);
  std::istringstream trace2_in(trace2_bytes.str());
  const TraceFile trace2 = parse_trace(trace2_in);
  ASSERT_EQ(config_from_trace(trace1).shards, 8);
  // 256 clients x 4 requests + 1 checkpoint, each an in/out pair.
  ASSERT_GE(trace1.frames.size(), 2u * (kClients * 4 + 1));
  ASSERT_GE(trace2.frames.size(), 2u * 64 * 3);

  for (const int threads : {1, 2, 8}) {
    expect_clean_replay(trace1, threads);
    expect_clean_replay(trace2, threads, resume_copy);
  }

  std::remove(checkpoint.c_str());
  std::remove(resume_copy.c_str());
}

// Replay catches real divergence: replaying the resumed-session trace
// WITHOUT restoring the checkpoint is a genuinely different trajectory,
// and the diff report names the frame and field.
TEST(TraceReplayE2E, ReplayWithoutTheRecordedResumeStateDiverges) {
  const std::string checkpoint =
      testing::TempDir() + "trace_replay_diverge.ckpt";
  std::remove(checkpoint.c_str());

  // Session 1: enough bids to run several auctions, then checkpoint.
  std::ostringstream trace1_bytes;
  {
    TracedServer server(traced_config(), trace1_bytes);
    std::vector<std::thread> clients;
    for (int c = 0; c < 16; ++c) {
      clients.emplace_back([&server, c] { run_client(server.port(), c, 8); });
    }
    for (std::thread& t : clients) t.join();
    const int fd = connect_client(server.port());
    Request ckpt;
    ckpt.op = Op::kCheckpoint;
    ckpt.id = 88888;
    ckpt.path = checkpoint;
    send_all(fd, format_request(ckpt) + "\n");
    ASSERT_TRUE(parse_response(read_line(fd)).ok);
    ::close(fd);
    server.stop();
  }

  // Session 2 resumes; its very first bid acks report the carried-over
  // book (pending bids, internal ids), which a cold replay cannot match.
  std::ostringstream trace2_bytes;
  {
    TracedServer server(traced_config(), trace2_bytes, checkpoint);
    const int fd = connect_client(server.port());
    std::string burst;
    for (int k = 0; k < 16; ++k) {
      burst += format_request(bid_for(k, 1000 + k)) + "\n";
    }
    send_all(fd, burst);
    for (int k = 0; k < 16; ++k) ASSERT_FALSE(read_line(fd).empty());
    ::close(fd);
    server.stop();
  }

  std::istringstream trace2_in(trace2_bytes.str());
  const TraceFile trace2 = parse_trace(trace2_in);
  ShardedService cold(config_from_trace(trace2));  // no restore()
  const ReplayResult result = replay_trace(trace2, cold);
  ASSERT_FALSE(result.clean());
  const FrameDiff& diff = result.diffs.front();
  EXPECT_FALSE(diff.field.empty());
  const std::string report = format_diff(diff);
  EXPECT_NE(report.find("frame"), std::string::npos);
  EXPECT_NE(report.find(diff.field), std::string::npos);

  std::remove(checkpoint.c_str());
}

// The stats op answered over TCP carries the event loop's own tallies —
// live introspection without scraping stderr.
TEST(TraceReplayE2E, StatsOpSurfacesEventLoopTallies) {
  std::ostringstream trace_bytes;
  TracedServer server(traced_config(), trace_bytes);
  run_client(server.port(), 3, 5);

  const int fd = connect_client(server.port());
  send_all(fd, "definitely not json\n");
  ASSERT_FALSE(parse_response(read_line(fd)).ok);

  Request stats;
  stats.op = Op::kStats;
  stats.id = 4242;
  send_all(fd, format_request(stats) + "\n");
  const Response response = parse_response(read_line(fd));
  ASSERT_TRUE(response.ok) << response.error;
  // Per-shard views (8 shards) plus the loop's own counters.
  EXPECT_TRUE(response.fields.has("shard0/requests"));
  EXPECT_TRUE(response.fields.has("shard7/requests"));
  EXPECT_GE(response.fields.number("connections"), 1.0);
  EXPECT_GE(response.fields.number("loop_accepted"), 2.0);
  EXPECT_GE(response.fields.number("loop_requests"), 6.0);
  EXPECT_GE(response.fields.number("loop_parse_errors"), 1.0);
  EXPECT_TRUE(response.fields.has("loop_rejected"));
  ::close(fd);
}

}  // namespace
}  // namespace melody::svc
