// Epoll front end (svc/event_loop.h) end-to-end over real sockets: one
// event-loop thread multiplexing hundreds of concurrent connections into a
// sharded service, per-connection response ordering under pipelining,
// protocol errors that keep (or, for framing violations, close) the
// connection, the overload/retry_after_ms backpressure contract, the
// shutdown-op drain, and the batched hand-offs: completions of several
// connections coalesced into one drain, and a connection that dies while
// its completions are still on the way.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "svc/config.h"
#include "svc/event_loop.h"
#include "svc/frame.h"
#include "svc/loadgen.h"
#include "svc/protocol.h"
#include "svc/router.h"
#include "svc/trace_log.h"

namespace melody::svc {
namespace {

ServiceConfig serve_config(int shards) {
  ServiceConfig config;
  config.scenario.num_workers = 42;
  config.scenario.num_tasks = 30;
  config.scenario.runs = 1000;
  config.scenario.budget = 120.0;
  config.seed = 2017;
  config.manual_clock = true;  // no wall-clock batch deadlines mid-test
  config.shards = shards;
  return config;
}

/// A served deployment on an ephemeral port: shards started, the event
/// loop running on its own thread until stop() (or a shutdown op).
struct Server {
  explicit Server(ServiceConfig config, std::size_t max_line = 1 << 20,
                  bool start_shards = true, TraceRecorder* recorder = nullptr)
      : service(std::move(config)) {
    EventLoopOptions options;
    options.port = 0;
    options.max_line = max_line;
    options.recorder = recorder;
    options.should_stop = [this] { return stop_flag.load(); };
    front = std::make_unique<EventLoop>(service, options);
    front->listen();
    if (start_shards) service.start();
    thread = std::thread([this] { stats = front->run(); });
  }

  ~Server() {
    stop();
    if (thread.joinable()) thread.join();
  }

  void stop() { stop_flag.store(true); }
  int port() const { return front->actual_port(); }

  ShardedService service;
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
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
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

/// Read one '\n'-terminated line (without the terminator); empty on
/// EOF/timeout. Byte-at-a-time is plenty for tests.
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

Request query_worker(int worker, std::int64_t id) {
  Request r;
  r.op = Op::kQueryWorker;
  r.id = id;
  r.worker = "w" + std::to_string(worker);
  return r;
}

// The headline deliverable: hundreds of concurrent connections through ONE
// event-loop thread, every one answered correctly.
TEST(EventLoopE2E, Serves256ConcurrentConnectionsOnOneThread) {
  Server server(serve_config(4));
  constexpr int kClients = 256;
  std::vector<int> fds;
  fds.reserve(kClients);
  // All sockets connected (and held open) before any request flows: the
  // front end is multiplexing 256 live connections at once.
  for (int k = 0; k < kClients; ++k) fds.push_back(connect_client(server.port()));

  for (int k = 0; k < kClients; ++k) {
    send_all(fds[static_cast<std::size_t>(k)],
             format_request(query_worker(k % 42, k + 1)) + "\n");
  }
  for (int k = 0; k < kClients; ++k) {
    const std::string line = read_line(fds[static_cast<std::size_t>(k)]);
    ASSERT_FALSE(line.empty()) << "client " << k;
    const Response response = parse_response(line);
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.id, k + 1);
    EXPECT_EQ(response.fields.text_or("worker", ""),
              "w" + std::to_string(k % 42));
  }
  for (const int fd : fds) ::close(fd);
  server.stop();
  server.thread.join();
  EXPECT_GE(server.stats.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_GE(server.stats.frames.requests, static_cast<std::uint64_t>(kClients));
}

TEST(EventLoopE2E, PipelinedRequestsAnswerInRequestOrder) {
  Server server(serve_config(4));
  const int fd = connect_client(server.port());
  constexpr int kRequests = 200;
  // One write carrying 200 requests that fan across all four shards: the
  // shards complete out of order, the reorder map restores request order.
  std::string burst;
  for (int k = 0; k < kRequests; ++k) {
    burst += format_request(query_worker((k * 7) % 42, k + 1)) + "\n";
  }
  send_all(fd, burst);
  for (int k = 0; k < kRequests; ++k) {
    const std::string line = read_line(fd);
    ASSERT_FALSE(line.empty()) << "response " << k;
    const Response response = parse_response(line);
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.id, k + 1) << "out-of-order response";
  }
  // Every reply so far left in some flush, and a flush carries at least
  // one reply: 1 <= loop_flushes <= kRequests.
  Request stats;
  stats.op = Op::kStats;
  stats.id = kRequests + 1;
  send_all(fd, format_request(stats) + "\n");
  const Response reply = parse_response(read_line(fd));
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.fields.number("loop_requests"), kRequests + 1.0);
  EXPECT_GE(reply.fields.number("loop_flushes"), 1.0);
  EXPECT_LE(reply.fields.number("loop_flushes"), kRequests + 0.0);
  ::close(fd);
}

TEST(EventLoopE2E, MalformedAndUnknownOpsKeepTheConnectionOpen) {
  Server server(serve_config(2));
  const int fd = connect_client(server.port());
  send_all(fd, "this is not json\n");
  Response response = parse_response(read_line(fd));
  EXPECT_FALSE(response.ok);

  send_all(fd, std::string(R"({"op":"frobnicate","id":9})") + "\n");
  response = parse_response(read_line(fd));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, "unsupported_op");
  EXPECT_EQ(response.id, 9);
  EXPECT_EQ(response.fields.number("proto_version"),
            static_cast<double>(kProtoVersion));

  // Same connection, still serving.
  send_all(fd, format_request(query_worker(3, 10)) + "\n");
  response = parse_response(read_line(fd));
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.id, 10);
  ::close(fd);
}

TEST(EventLoopE2E, OversizedRequestLineAnswersAndCloses) {
  Server server(serve_config(1), /*max_line=*/128);
  const int fd = connect_client(server.port());
  // 4 KiB without a newline: a framing violation, not a parse error.
  send_all(fd, std::string(4096, 'x'));
  const std::string line = read_line(fd);
  ASSERT_FALSE(line.empty());
  const Response response = parse_response(line);
  EXPECT_FALSE(response.ok);
  // ... and then EOF: the connection is closed, not left half-dead.
  EXPECT_TRUE(read_line(fd).empty());
  ::close(fd);
}

TEST(EventLoopE2E, FullQueueAnswersOverloadedWithRetryAfter) {
  // Shard consumers NOT started and capacity 1: the first bid parks in the
  // queue, the next two are rejected inline — the deterministic overload.
  ServiceConfig config = serve_config(1);
  config.queue_capacity = 1;
  Server server(std::move(config), 1 << 20, /*start_shards=*/false);
  const int fd = connect_client(server.port());

  Request bid;
  bid.op = Op::kSubmitBid;
  bid.worker = "w0";
  bid.id = 1;
  send_all(fd, format_request(bid) + "\n");
  // Let the loop ingest line 1 before lines 2 and 3 arrive.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  bid.id = 2;
  send_all(fd, format_request(bid) + "\n");
  bid.id = 3;
  send_all(fd, format_request(bid) + "\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Nothing can flush yet — responses leave in request order and request 1
  // is still queued. Drain it from this thread (the consumers are ours).
  while (!server.service.poll_once(std::chrono::nanoseconds{0})) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const Response first = parse_response(read_line(fd));
  EXPECT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.id, 1);
  for (const std::int64_t id : {2, 3}) {
    const Response rejectedResponse = parse_response(read_line(fd));
    EXPECT_FALSE(rejectedResponse.ok);
    EXPECT_EQ(rejectedResponse.id, id);
    EXPECT_EQ(rejectedResponse.error, "overloaded");
    EXPECT_GT(rejectedResponse.retry_after_ms, 0);
  }
  ::close(fd);
}

TEST(EventLoopE2E, ShutdownOpDrainsAndStopsTheLoop) {
  Server server(serve_config(2));
  const int fd = connect_client(server.port());
  Request shutdown;
  shutdown.op = Op::kShutdown;
  shutdown.id = 42;
  send_all(fd, format_request(shutdown) + "\n");
  const Response response = parse_response(read_line(fd));
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.id, 42);
  EXPECT_TRUE(response.fields.has("runs_total"));
  // The loop exits on its own — no stop flag — and closes the connection.
  server.thread.join();
  EXPECT_TRUE(server.service.shutdown_requested());
  EXPECT_TRUE(read_line(fd).empty());
  ::close(fd);
}

/// A client's pipelined loadgen stream over the 42-worker population,
/// with stats left out (TCP appends loop tallies to its reply).
std::string loadgen_script(int client, int requests) {
  loadgen::StreamConfig stream;
  stream.seed = 11;
  stream.workers = 42;
  std::string script;
  for (int k = 0; k < requests; ++k) {
    const Request request = loadgen::make_request(stream, client, k);
    if (request.op == Op::kStats) continue;
    script += format_request(request) + "\n";
  }
  return script;
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
}

// Two connections' pipelined bursts park in the queues of a K=2
// deployment whose consumers start only once both are in: the shards then
// drain in batches whose completions interleave both connections, so one
// drain files replies for both and flushes each once. Every shard applies
// connection A's requests, then B's, just as a stdio session of script
// A + B does, so each connection gets exactly its part of that session's
// replies, byte for byte and in request order.
TEST(EventLoopE2E, TwoPipelinedConnectionsMatchTheStdioSession) {
  ServiceConfig config = serve_config(2);
  config.queue_capacity = 1024;  // both bursts fit: nothing is refused
  const std::string script_a = loadgen_script(0, 240);
  const std::string script_b = loadgen_script(1, 240);
  const std::size_t replies_a = count_lines(script_a);
  const std::size_t replies_b = count_lines(script_b);

  std::vector<std::string> stdio_lines;
  {
    ShardedService service(config);
    std::istringstream in(script_a + script_b);
    std::ostringstream out;
    run_stdio_session(service, in, out);
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
      stdio_lines.push_back(line);
    }
  }
  ASSERT_EQ(stdio_lines.size(), replies_a + replies_b);

  Server server(config, 1 << 20, /*start_shards=*/false);
  const int fd_a = connect_client(server.port());
  const int fd_b = connect_client(server.port());
  // Let the loop ingest all of A before any of B reaches it.
  send_all(fd_a, script_a);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  send_all(fd_b, script_b);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server.service.start();
  for (std::size_t k = 0; k < replies_a; ++k) {
    EXPECT_EQ(read_line(fd_a), stdio_lines[k]) << "connection A reply " << k;
  }
  for (std::size_t k = 0; k < replies_b; ++k) {
    EXPECT_EQ(read_line(fd_b), stdio_lines[replies_a + k])
        << "connection B reply " << k;
  }
  ::close(fd_a);
  ::close(fd_b);
  server.stop();
  server.thread.join();
  EXPECT_GE(server.stats.flushes, 1u);
  EXPECT_LE(server.stats.flushes, replies_a + replies_b);
}

// Connection A resets while its whole burst still sits in the shard
// queues; the completions then reach the loop in drain batches beside
// connection B's, for a connection id that no longer exists. They are
// dropped, B is answered in full and in order, and the loop keeps serving.
TEST(EventLoopE2E, ConnectionThatDiesBeforeItsCompletionsIsSkipped) {
  std::signal(SIGPIPE, SIG_IGN);  // a lost race must fail, not kill
  ServiceConfig config = serve_config(2);
  config.queue_capacity = 1024;
  Server server(config, 1 << 20, /*start_shards=*/false);
  const int fd_a = connect_client(server.port());
  const int fd_b = connect_client(server.port());
  constexpr int kRequests = 120;
  std::string burst;
  for (int k = 0; k < kRequests; ++k) {
    burst += format_request(query_worker((k * 5) % 42, k + 1)) + "\n";
  }
  send_all(fd_a, burst);
  send_all(fd_b, burst);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Close with a reset, not a FIN: the loop destroys the connection at
  // once instead of waiting to flush its replies.
  const linger reset{1, 0};
  ::setsockopt(fd_a, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
  ::close(fd_a);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server.service.start();
  for (int k = 0; k < kRequests; ++k) {
    const std::string line = read_line(fd_b);
    ASSERT_FALSE(line.empty()) << "response " << k;
    const Response response = parse_response(line);
    EXPECT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.id, k + 1) << "out-of-order response";
  }
  // Still serving: a fresh connection is answered.
  const int fd_c = connect_client(server.port());
  send_all(fd_c, format_request(query_worker(7, 1000)) + "\n");
  const Response fresh = parse_response(read_line(fd_c));
  EXPECT_TRUE(fresh.ok) << fresh.error;
  EXPECT_EQ(fresh.id, 1000);
  ::close(fd_b);
  ::close(fd_c);
  server.stop();
  server.thread.join();
  // A's replies never left: only B's and C's were flushed.
  EXPECT_LE(server.stats.flushes, static_cast<std::uint64_t>(kRequests + 1));
}

std::vector<TraceFrame> in_frames(const std::string& trace_bytes) {
  std::istringstream in(trace_bytes);
  std::vector<TraceFrame> frames;
  for (TraceFrame& frame : parse_trace(in).frames) {
    if (frame.dir == TraceFrame::Dir::kIn) frames.push_back(std::move(frame));
  }
  return frames;
}

// Stdio and TCP answer a request line through the same frame path: one
// script — CRLF framing with a blank line, a malformed line, an unknown op,
// a hello carrying proto 2, a round of bids and a tick — gets
// byte-identical replies and the same MLDYTRC in-frames from both. (No
// stats op: the event loop appends its own loop_* tallies to that reply.)
TEST(EventLoopE2E, StdioAndTcpAnswerAScriptIdentically) {
  std::string script = R"({"op":"hello","id":1,"proto":2})" "\r\n"
                       "\r\n"
                       "this is not json\n"
                       R"({"op":"frobnicate","id":3})" "\r\n";
  std::int64_t id = 4;
  for (int w = 0; w < 42; ++w) {  // one full round: every shard runs once
    Request bid;
    bid.op = Op::kSubmitBid;
    bid.id = id++;
    bid.worker = "w" + std::to_string(w);
    script += format_request(bid) + "\n";
  }
  Request tick;
  tick.op = Op::kTick;
  tick.id = id++;
  tick.seconds = 0.5;
  script += format_request(tick) + "\n";
  const std::size_t replies = 3 + 42 + 1;  // the blank line gets none

  std::vector<std::string> stdio_lines;
  std::ostringstream stdio_trace;
  {
    ShardedService service(serve_config(2));
    TraceRecorder recorder(stdio_trace);
    std::istringstream in(script);
    std::ostringstream out;
    run_stdio_session(service, in, out, &recorder);
    recorder.finish();
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
      stdio_lines.push_back(line);
    }
  }

  std::vector<std::string> tcp_lines;
  std::ostringstream tcp_trace;
  {
    TraceRecorder recorder(tcp_trace);
    Server server(serve_config(2), 1 << 20, true, &recorder);
    const int fd = connect_client(server.port());
    send_all(fd, script);
    for (std::size_t k = 0; k < replies; ++k) {
      tcp_lines.push_back(read_line(fd));
    }
    ::close(fd);
    server.stop();
    server.thread.join();
    recorder.finish();
  }

  ASSERT_EQ(stdio_lines.size(), replies);
  EXPECT_EQ(tcp_lines, stdio_lines);
  EXPECT_EQ(parse_response(stdio_lines[0]).fields.number("proto_version"),
            static_cast<double>(kProtoVersion));

  const std::vector<TraceFrame> stdio_in = in_frames(stdio_trace.str());
  const std::vector<TraceFrame> tcp_in = in_frames(tcp_trace.str());
  ASSERT_EQ(stdio_in.size(), replies);
  ASSERT_EQ(tcp_in.size(), replies);
  for (std::size_t k = 0; k < replies; ++k) {
    EXPECT_EQ(tcp_in[k].seq, stdio_in[k].seq) << "frame " << k;
    EXPECT_EQ(tcp_in[k].line, stdio_in[k].line) << "frame " << k;
    EXPECT_EQ(tcp_in[k].shard, stdio_in[k].shard) << "frame " << k;
  }
  EXPECT_EQ(stdio_in[1].shard, kShardNone);
}

}  // namespace
}  // namespace melody::svc
