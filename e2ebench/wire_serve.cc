// wire_serve: svc::EventLoop over a K=2 svc::ShardedService on loopback
// TCP, in process, with a 1-thread pool. One client thread drives two
// connections in a closed loop, keeping a fixed window of requests in
// flight on each; the total window stays below the per-shard queue
// capacity, so nothing is refused. The stream is svc::loadgen's proto-5
// mix over a 20k-worker population; each shard runs only a few auctions
// and EM never refits: the wire codec, the epoll loop and the shard queues
// do the work.
//
// One unit of work is a fresh deployment serving the fixed stream. A run
// does kUnitsPerSecond units per second of --seconds. Throughput and
// latency are those of the best unit: on a shared host, bursts of
// contention lasting seconds slow some units by up to half and never speed
// one up, so the median over units measures the neighbours and the best
// unit the code. Set-up time is the median over units.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "svc/event_loop.h"
#include "svc/loadgen.h"
#include "svc/protocol.h"
#include "svc/router.h"
#include "workloads.h"

namespace e2ebench {

namespace {

constexpr int kWorkers = 20000;
constexpr int kShards = 2;
constexpr int kConnections = 2;
constexpr int kWindow = 32;  // per connection
constexpr int kRequestsPerConnection = 20000;
constexpr int kQueueCapacity = 128;
static_assert(kConnections * kWindow < kQueueCapacity,
              "the total window must stay below the per-shard queue");
constexpr double kUnitsPerSecond = 1.0;
// A connection that delivers nothing for this long has lost its replies.
constexpr int kStallMs = 10000;

}  // namespace

// The client thread, the event loop and one consumer per shard.
const Shape kWireServeShape{.busy_threads = 2 + kShards,
                            .pool_threads = 1,
                            .shards = kShards,
                            .connections = kConnections,
                            .window = kWindow};

namespace {

using melody::svc::Op;
using melody::svc::Request;
using melody::svc::Response;

melody::svc::ServiceConfig deployment_config(std::uint64_t seed) {
  melody::svc::ServiceConfig config;
  config.scenario.num_workers = kWorkers;
  // The horizon sizes every worker's latent trajectory; the stream runs
  // only a few auctions per shard, so a short one keeps set-up small.
  config.scenario.runs = 50;
  config.shards = kShards;
  config.queue_capacity = kQueueCapacity;
  config.manual_clock = true;
  // A run per 2000 pending bids on each shard (the trigger scales by worker
  // share): six or seven auctions per shard per unit, enough to average the
  // auction outcomes, and fewer than the EM period T = 10, so no refit.
  config.batch.min_bids = 4000;
  config.seed = seed;
  return config;
}

/// The fixed request stream of one connection.
struct Stream {
  std::vector<Request> requests;
  std::vector<std::string> lines;  // wire form, newline-terminated
};

std::array<Stream, kConnections> make_streams(std::uint64_t seed) {
  melody::svc::loadgen::StreamConfig config;
  config.seed = seed;
  config.workers = kWorkers;
  config.proto = 5;
  std::array<Stream, kConnections> streams;
  for (int c = 0; c < kConnections; ++c) {
    Stream& s = streams[static_cast<std::size_t>(c)];
    for (int k = 0; k < kRequestsPerConnection; ++k) {
      s.requests.push_back(melody::svc::loadgen::make_request(config, c, k));
      s.lines.push_back(melody::svc::format_request(s.requests.back()) + "\n");
    }
  }
  return streams;
}

/// The one negative answer the loadgen mix is designed to produce: a
/// query_run for a run the addressed shard has not executed yet.
bool designed_negative(const Request& request, const Response& response) {
  static const std::string kPrefix = "query_run: run ";
  static const std::string kSuffix = " has not executed yet";
  const std::string& e = response.error;
  return request.op == Op::kQueryRun && e.size() > kPrefix.size() + kSuffix.size() &&
         e.compare(0, kPrefix.size(), kPrefix) == 0 &&
         e.compare(e.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0;
}

enum class OpClass { kWrite, kRead, kBroadcast };

OpClass op_class(Op op) {
  switch (op) {
    case Op::kSubmitBid:
    case Op::kUpdateBid:
    case Op::kWithdrawBid:
      return OpClass::kWrite;
    case Op::kQueryWorker:
    case Op::kQueryRun:
      return OpClass::kRead;
    default:
      return OpClass::kBroadcast;
  }
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("wire_serve: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("wire_serve: connect() failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One client connection: its stream cursor, buffers and per-request
/// send times, latencies and reply lines.
struct Conn {
  int fd = -1;
  const Stream* stream = nullptr;
  std::size_t next_send = 0;
  std::size_t next_recv = 0;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::vector<Clock::time_point> sent;
  std::vector<double> latency_us;
  std::vector<std::string> replies;
  bool closed = false;
  // Traced units decode each reply as it lands, to find the replies that
  // carry runs_executed (an auction ran before the shard answered).
  bool trace = false;
  std::vector<char> ran_auction;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  std::size_t total() const { return stream->lines.size(); }
  bool done() const { return closed || next_recv == total(); }
};

/// Blocking exchange of one line on a fresh connection (the hello).
std::string exchange(int fd, const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("wire_serve: hello send failed");
    off += static_cast<std::size_t>(n);
  }
  std::string reply;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') reply.push_back(c);
  return reply;
}

void write_some(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      conn.closed = true;
      return;
    }
  }
  conn.out.clear();
  conn.out_off = 0;
}

void read_some(Conn& conn) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n == 0) {
      conn.closed = true;
      return;
    }
    if (n < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) conn.closed = true;
      return;
    }
    const auto now = Clock::now();
    conn.in.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = conn.in.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      if (conn.next_recv >= conn.next_send) {
        throw CheckFailure("wire_serve: reply without a request in flight");
      }
      conn.latency_us.push_back(
          std::chrono::duration<double, std::micro>(now -
                                                    conn.sent[conn.next_recv])
              .count());
      conn.replies.emplace_back(conn.in, start, nl - start);
      if (conn.trace) {
        conn.ran_auction.push_back(
            melody::svc::parse_response(conn.replies.back())
                .fields.has("runs_executed"));
      }
      ++conn.next_recv;
    }
    conn.in.erase(0, start);
  }
}

/// What one unit of the wire stream measured.
struct WireUnit {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> latency_us;   // every delivered reply
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t designed_negatives = 0;
  // The auctions the deployment ran while serving, and its state size
  // afterwards (read once the loop has drained, outside the timed stream).
  double est_error = 0.0;
  double requester_utility = 0.0;
  double state_mb = 0.0;
  // Kept for the traced pass: each connection's reply lines and latencies,
  // and (traced units) which replies carried runs_executed.
  std::array<std::vector<std::string>, kConnections> replies;
  std::array<std::vector<double>, kConnections> conn_latency_us;
  std::array<std::vector<char>, kConnections> ran_auction;
};

/// Check every reply of one connection (parses, carries its request's id,
/// arrives in request order) and count the failures: any ok:false reply
/// other than the designed negative, and every missing reply.
void account(const Stream& stream, const std::vector<std::string>& replies,
             WireUnit& unit) {
  unit.attempted += stream.requests.size();
  unit.failed += stream.requests.size() - replies.size();
  for (std::size_t k = 0; k < replies.size(); ++k) {
    Response response;
    try {
      response = melody::svc::parse_response(replies[k]);
    } catch (const std::exception& e) {
      throw CheckFailure("wire_serve: reply does not parse: " + replies[k]);
    }
    if (response.id != stream.requests[k].id) {
      throw CheckFailure("wire_serve: reply " + std::to_string(k) +
                         " carries id " + std::to_string(response.id) +
                         ", expected " +
                         std::to_string(stream.requests[k].id) +
                         " (out of order or lost)");
    }
    if (response.ok) continue;
    if (designed_negative(stream.requests[k], response)) {
      ++unit.designed_negatives;
    } else {
      ++unit.failed;
    }
  }
}

WireUnit run_wire_unit(std::uint64_t seed,
                       const std::array<Stream, kConnections>& streams,
                       bool trace) {
  WireUnit unit;
  const auto setup_start = Clock::now();
  melody::svc::ShardedService service(deployment_config(seed));
  std::atomic<bool> stop{false};
  melody::svc::EventLoopOptions options;
  options.port = 0;
  options.should_stop = [&stop] { return stop.load(); };
  melody::svc::EventLoop loop(service, options);
  loop.listen();
  service.start();
  std::thread server([&loop] { loop.run(); });
  std::array<Conn, kConnections> conns;
  try {
    Request hello;
    hello.op = Op::kHello;
    hello.proto = 5;
    const std::string hello_line = melody::svc::format_request(hello) + "\n";
    for (int c = 0; c < kConnections; ++c) {
      Conn& conn = conns[static_cast<std::size_t>(c)];
      conn.fd = connect_loopback(loop.actual_port());
      const Response reply =
          melody::svc::parse_response(exchange(conn.fd, hello_line));
      if (!reply.ok) throw std::runtime_error("wire_serve: hello refused");
      ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
      conn.stream = &streams[static_cast<std::size_t>(c)];
      conn.trace = trace;
      conn.sent.resize(conn.total());
      conn.latency_us.reserve(conn.total());
      conn.replies.reserve(conn.total());
    }
    unit.setup_s = seconds_since(setup_start);

    const auto start = Clock::now();
    auto last_progress = start;
    for (;;) {
      bool all_done = true;
      std::array<pollfd, kConnections> fds{};
      for (int c = 0; c < kConnections; ++c) {
        Conn& conn = conns[static_cast<std::size_t>(c)];
        fds[static_cast<std::size_t>(c)] = {.fd = -1, .events = 0, .revents = 0};
        if (conn.done()) continue;
        all_done = false;
        const auto now = Clock::now();
        while (conn.next_send < conn.total() &&
               conn.next_send - conn.next_recv < kWindow) {
          conn.out += conn.stream->lines[conn.next_send];
          conn.sent[conn.next_send] = now;
          ++conn.next_send;
        }
        write_some(conn);
        fds[static_cast<std::size_t>(c)] = {
            .fd = conn.fd,
            .events = static_cast<short>(POLLIN | (conn.out.empty() ? 0 : POLLOUT)),
            .revents = 0};
      }
      if (all_done) break;
      const int n = ::poll(fds.data(), fds.size(), 100);
      if (n < 0 && errno != EINTR) throw std::runtime_error("wire_serve: poll failed");
      bool progress = false;
      for (int c = 0; c < kConnections; ++c) {
        Conn& conn = conns[static_cast<std::size_t>(c)];
        if (fds[static_cast<std::size_t>(c)].revents == 0) continue;
        const std::size_t before = conn.next_recv;
        read_some(conn);
        progress |= conn.next_recv != before;
      }
      if (progress) {
        last_progress = Clock::now();
      } else if (seconds_since(last_progress) * 1e3 > kStallMs) {
        break;  // the missing replies count as failures
      }
    }
    unit.wall_s = seconds_since(start);
  } catch (...) {
    stop = true;
    server.join();
    throw;
  }
  stop = true;
  server.join();
  const auto records = service.aggregated_records();
  if (records.empty()) {
    throw std::runtime_error("wire_serve: the stream ran no auction");
  }
  for (const auto& r : records) {
    unit.est_error += r.estimation_error / static_cast<double>(records.size());
    unit.requester_utility +=
        static_cast<double>(r.true_utility) / static_cast<double>(records.size());
  }
  {
    CountingBuf buf;
    std::ostream out(&buf);
    service.save_state(out);
    unit.state_mb = static_cast<double>(buf.bytes) / 1e6;
  }
  for (int c = 0; c < kConnections; ++c) {
    Conn& conn = conns[static_cast<std::size_t>(c)];
    account(*conn.stream, conn.replies, unit);
    unit.latency_us.insert(unit.latency_us.end(), conn.latency_us.begin(),
                           conn.latency_us.end());
    unit.replies[static_cast<std::size_t>(c)] = std::move(conn.replies);
    unit.conn_latency_us[static_cast<std::size_t>(c)] =
        std::move(conn.latency_us);
    unit.ran_auction[static_cast<std::size_t>(c)] = std::move(conn.ran_auction);
  }
  return unit;
}

/// The same stream and window pushed straight into ShardedService::submit,
/// timed from submit to done, with no sockets.
struct InprocUnit {
  double wall_s = 0.0;
  std::uint64_t full_retries = 0;
  std::uint64_t failed = 0;
  std::array<std::vector<double>, 3> class_us;  // by OpClass
  std::vector<double> latency_us;
};

InprocUnit run_inproc_unit(std::uint64_t seed,
                           const std::array<Stream, kConnections>& streams) {
  melody::svc::ShardedService service(deployment_config(seed));
  service.start();
  struct Slot {
    Clock::time_point sent;
    double latency_us = 0.0;
    bool ok = false;
  };
  std::array<std::vector<Slot>, kConnections> slots;
  std::array<std::atomic<int>, kConnections> in_flight{};
  for (int c = 0; c < kConnections; ++c) {
    slots[static_cast<std::size_t>(c)].resize(kRequestsPerConnection);
  }
  InprocUnit unit;
  std::array<std::size_t, kConnections> next{};
  const auto start = Clock::now();
  for (bool more = true; more;) {
    more = false;
    for (int c = 0; c < kConnections; ++c) {
      const auto cu = static_cast<std::size_t>(c);
      const Stream& stream = streams[cu];
      if (next[cu] >= stream.requests.size()) continue;
      more = true;
      if (in_flight[cu].load(std::memory_order_acquire) >= kWindow) continue;
      const std::size_t k = next[cu]++;
      Slot& slot = slots[cu][k];
      in_flight[cu].fetch_add(1, std::memory_order_acq_rel);
      slot.sent = Clock::now();
      const Request& request = stream.requests[k];
      auto done = [&slot, &flight = in_flight[cu], &request](const Response& r) {
        slot.latency_us =
            std::chrono::duration<double, std::micro>(Clock::now() - slot.sent)
                .count();
        slot.ok = r.ok || designed_negative(request, r);
        flight.fetch_sub(1, std::memory_order_acq_rel);
      };
      melody::svc::PushResult pushed;
      while ((pushed = service.submit(request, done)) ==
             melody::svc::PushResult::kFull) {
        ++unit.full_retries;
        std::this_thread::yield();
      }
      if (pushed != melody::svc::PushResult::kOk) {
        throw std::runtime_error("wire_serve: in-process service closed");
      }
    }
    if (more) std::this_thread::yield();
  }
  for (auto& flight : in_flight) {
    while (flight.load(std::memory_order_acquire) > 0) std::this_thread::yield();
  }
  unit.wall_s = seconds_since(start);
  service.begin_shutdown();
  service.join();
  for (int c = 0; c < kConnections; ++c) {
    const auto cu = static_cast<std::size_t>(c);
    for (std::size_t k = 0; k < slots[cu].size(); ++k) {
      const Slot& slot = slots[cu][k];
      if (!slot.ok) ++unit.failed;
      unit.latency_us.push_back(slot.latency_us);
      unit.class_us[static_cast<std::size_t>(
                        op_class(streams[cu].requests[k].op))]
          .push_back(slot.latency_us);
    }
  }
  return unit;
}

double per_item_us(Clock::time_point start, std::size_t items) {
  return seconds_since(start) * 1e6 / static_cast<double>(items);
}

}  // namespace

Outcome run_wire_serve(const Args& args) {
  const auto streams = make_streams(args.seed);
  Outcome outcome;
  const int count = units_for(args.seconds, kUnitsPerSecond, 3);
  std::vector<WireUnit> units;   // untraced
  std::vector<WireUnit> traced;  // traced pass only
  std::vector<InprocUnit> inproc;
  const auto tally = [&outcome](const WireUnit& u) {
    outcome.attempted += u.attempted;
    outcome.failed += u.failed;
  };
  for (int k = 0; k < count; ++k) {
    units.push_back(run_wire_unit(args.seed, streams, false));
    tally(units.back());
    units.back().replies = {};
    if (!args.trace) continue;
    // Only the latest traced unit's frames are kept for the codec timings.
    if (!traced.empty()) traced.back().replies = {};
    traced.push_back(run_wire_unit(args.seed, streams, true));
    tally(traced.back());
    inproc.push_back(run_inproc_unit(args.seed, streams));
  }

  std::vector<double> setups, rates, p50s, p90s, p99s, walls;
  double est_error = 0.0, utility = 0.0, state_mb = 0.0;
  for (const WireUnit& u : units) {
    setups.push_back(u.setup_s);
    walls.push_back(u.wall_s);
    rates.push_back(static_cast<double>(u.attempted) / u.wall_s);
    p50s.push_back(quantile(u.latency_us, 0.50) / 1e3);
    p90s.push_back(quantile(u.latency_us, 0.90) / 1e3);
    p99s.push_back(quantile(u.latency_us, 0.99) / 1e3);
    est_error += u.est_error / static_cast<double>(units.size());
    utility += u.requester_utility / static_cast<double>(units.size());
    state_mb += u.state_mb / static_cast<double>(units.size());
  }
  std::printf("wire_serve: %zu units of %d requests; median unit %.0f req/s, "
              "p50 %.4f ms, p90 %.4f ms, p99 %.4f ms; best unit %.0f req/s; "
              "%llu designed negatives in the last unit\n",
              units.size(), kConnections * kRequestsPerConnection,
              median(rates), median(p50s), median(p90s), median(p99s),
              quantile(rates, 1.0),
              static_cast<unsigned long long>(units.back().designed_negatives));
  if (!args.trace) {
    outcome.set("setup_s", median(setups));
    outcome.set("ops_per_s", quantile(rates, 1.0));
    outcome.set("latency_p50_ms", quantile(p50s, 0.0));
    outcome.set("latency_p90_ms", quantile(p90s, 0.0));
    outcome.set("state_mb", state_mb);
    outcome.set("est_error", est_error);
    outcome.set("requester_utility", utility);
    return outcome;
  }

  // Codec costs on the last traced unit's recorded frames.
  const WireUnit& last = traced.back();
  std::vector<std::string> request_lines;
  std::vector<Response> responses;
  double bytes = 0.0;
  std::uint64_t auction_runs = 0;
  std::vector<double> run_reply_us;
  for (int c = 0; c < kConnections; ++c) {
    const auto cu = static_cast<std::size_t>(c);
    for (std::size_t k = 0; k < last.replies[cu].size(); ++k) {
      std::string line = streams[cu].lines[k];
      line.pop_back();
      bytes += static_cast<double>(line.size() + last.replies[cu][k].size() + 2);
      request_lines.push_back(std::move(line));
      responses.push_back(melody::svc::parse_response(last.replies[cu][k]));
      if (last.ran_auction[cu][k]) {
        ++auction_runs;
        run_reply_us.push_back(last.conn_latency_us[cu][k]);
      }
    }
  }
  std::vector<double> traced_walls, traced_p50_us;
  for (const WireUnit& u : traced) {
    traced_walls.push_back(u.wall_s);
    traced_p50_us.push_back(quantile(u.latency_us, 0.50));
  }
  std::vector<double> decode_us, encode_us;
  std::size_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    auto t = Clock::now();
    for (const std::string& line : request_lines) {
      sink += static_cast<std::size_t>(melody::svc::parse_request(line).id);
    }
    decode_us.push_back(per_item_us(t, request_lines.size()));
    t = Clock::now();
    for (const Response& r : responses) {
      sink += melody::svc::format_response(r).size();
    }
    encode_us.push_back(per_item_us(t, responses.size()));
  }
  if (sink == 0) std::printf("(empty codec pass)\n");

  std::vector<double> submit_p50, submit_p99, inproc_rates, retries;
  std::array<std::vector<double>, 3> class_p50;
  std::uint64_t inproc_failed = 0;
  for (const InprocUnit& u : inproc) {
    submit_p50.push_back(quantile(u.latency_us, 0.50));
    submit_p99.push_back(quantile(u.latency_us, 0.99));
    inproc_rates.push_back(static_cast<double>(u.latency_us.size()) / u.wall_s);
    retries.push_back(static_cast<double>(u.full_retries));
    for (std::size_t k = 0; k < 3; ++k) {
      class_p50[k].push_back(quantile(u.class_us[k], 0.50));
    }
    inproc_failed += u.failed;
  }
  if (inproc_failed != 0) {
    throw CheckFailure("wire_serve: " + std::to_string(inproc_failed) +
                       " in-process requests failed");
  }

  const double wire_p50_us = median(traced_p50_us);
  const double decode = median(decode_us);
  const double encode = median(encode_us);
  const double submit = median(submit_p50);
  const Ledger ledger{.title = "wire_serve: median request latency",
                      .unit = "us",
                      .whole = wire_p50_us,
                      .parts = {{"svc.decode (parse_request)", decode},
                                {"svc.submit p50 (in-process)", submit},
                                {"svc.encode (format_response)", encode}}};
  ledger.print_and_check();
  std::printf("  unexplained remainder = svc.loop_residual (epoll loop, "
              "socket, client)\n");

  outcome.set("svc.decode_us", decode);
  outcome.set("svc.encode_us", encode);
  outcome.set("svc.bytes_per_request", bytes / static_cast<double>(request_lines.size()));
  outcome.set("svc.submit_us_p50", submit);
  outcome.set("svc.submit_us_p99", median(submit_p99));
  outcome.set("svc.inproc_requests_per_s", median(inproc_rates));
  outcome.set("svc.full_retries", median(retries));
  outcome.set("svc.write_us_p50", median(class_p50[0]));
  outcome.set("svc.read_us_p50", median(class_p50[1]));
  outcome.set("svc.broadcast_us_p50", median(class_p50[2]));
  outcome.set("svc.auction_runs", static_cast<double>(auction_runs));
  outcome.set("svc.run_reply_us_p50", median(run_reply_us));
  outcome.set("svc.loop_residual_us_p50", wire_p50_us - decode - submit - encode);
  outcome.set("trace.overhead_frac", median(traced_walls) / median(walls));
  return outcome;
}

}  // namespace e2ebench
