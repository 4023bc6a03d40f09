// melody_loadgen — deterministic load generator for melody_serve.
//
// Each client connection replays a request stream derived from counter-based
// RNG streams (util::derive_stream(seed, client, request)), so a given
// --seed/--clients/--requests triple always produces the same operation
// sequence regardless of scheduling. Two pacing modes:
//
//   * closed — send, wait for the response, think, repeat: latency under a
//     fixed concurrency level (the classic closed-loop client);
//   * open   — a sender thread paces requests on the fixed arrival grid of
//     svc::loadgen::OpenLoopSchedule while a receiver thread matches
//     in-order responses to send timestamps: the server sees arrivals that
//     do not slow down when it does, which is what actually drives the
//     queue into backpressure. A request rejected with retry_after_ms is
//     re-sent after that hint WITHOUT shifting the fresh-request grid, so
//     a rejected run offers the same deterministic load as a clean one.
//
// Latency percentiles over all completed requests are printed and mirrored
// via bench::Reporter (CSV lands in out/). --metrics-json additionally
// records one obs::Summary per op ("loadgen/<op>_latency_ms") and dumps the
// registry as JSON lines at exit, so per-op tails are visible without
// re-running. With --dry-run the request lines go to stdout instead of a
// socket — piping them into `melody_serve --stdin` replays the identical
// stream without networking.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_common.h"
#include "cluster/client_router.h"
#include "cluster/net.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "svc/loadgen.h"
#include "svc/protocol.h"
#include "util/build_info.h"
#include "util/flags.h"
#include "util/stats.h"

namespace {

using namespace melody;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  std::int64_t port = 7117;
  std::string mode = "closed";
  std::int64_t clients = 4;
  std::int64_t requests = 200;
  std::int64_t workers = 300;
  double rate = 200.0;
  double think_ms = 0.0;
  double task_budget = 800.0;
  std::int64_t seed = 1;
  std::string ops;
  std::string csv;
  std::string metrics_json;
  std::string cluster;
  std::string ctl_host;  // --cluster, split by main
  int ctl_port = 0;
  bool dry_run = false;
  bool quiet = false;
  bool version = false;
};

Options read_options(const util::Flags& flags) {
  Options o;
  o.host = flags.get_string("host", o.host, "HOST", "server address");
  o.port = flags.get_int("port", o.port, "PORT", "server TCP port");
  o.mode = flags.get_string("mode", o.mode, "MODE",
                            "pacing: closed (send-wait-think) or open "
                            "(fixed-rate arrivals)");
  o.clients = flags.get_int("clients", o.clients, "C",
                            "concurrent client connections");
  o.requests =
      flags.get_int("requests", o.requests, "N", "requests per client");
  o.workers = flags.get_int(
      "workers", o.workers, "N",
      "worker name space size; names w0..w{N-1} match the server scenario");
  o.rate = flags.get_double("rate", o.rate, "R",
                            "open mode: requests per second per client");
  o.think_ms = flags.get_double("think-ms", o.think_ms, "MS",
                                "closed mode: delay between requests");
  o.task_budget = flags.get_double("task-budget", o.task_budget, "B",
                                   "budget carried by submit_tasks requests");
  o.seed = flags.get_int("seed", o.seed, "S",
                         "master seed for the per-client request streams");
  o.ops = flags.get_string(
      "ops", "", "LIST",
      "dry-run only: restrict the printed stream to these comma-separated "
      "op names");
  o.csv = flags.get_string("csv", "loadgen_latency.csv", "NAME",
                           "latency summary CSV (written under out/)");
  o.metrics_json = flags.get_string(
      "metrics-json", "", "PATH",
      "record per-op latency summaries (loadgen/<op>_latency_ms) and write "
      "the metric registry to PATH as JSON lines at exit");
  o.cluster = flags.get_string(
      "cluster", "", "HOST:PORT",
      "melody_cluster control endpoint: fetch the routing table and route "
      "each request to the member owning its shard (closed mode; "
      "--host/--port are ignored)");
  o.dry_run = flags.has_switch(
      "dry-run", "print request lines to stdout instead of connecting "
                 "(pipe into melody_serve --stdin)");
  o.quiet = flags.has_switch("quiet", "suppress the per-client progress");
  o.version = flags.has_switch(
      "version", "print the build sha and format versions, then exit");
  return o;
}

int usage(const char* error) {
  util::Flags dummy;
  read_options(dummy);
  std::fputs(dummy.help("melody_loadgen",
                        "Deterministic closed/open-loop client for "
                        "melody_serve.")
                 .c_str(),
             stderr);
  if (error != nullptr) std::fprintf(stderr, "\nerror: %s\n", error);
  return error != nullptr ? 1 : 0;
}

svc::loadgen::StreamConfig stream_config(const Options& options) {
  svc::loadgen::StreamConfig config;
  config.seed = static_cast<std::uint64_t>(options.seed);
  config.workers = options.workers;
  config.task_budget = options.task_budget;
  return config;
}

/// Parse the --ops filter. Throws std::invalid_argument on an op name the
/// protocol does not know.
std::vector<svc::Op> parse_ops_filter(const std::string& list) {
  std::vector<svc::Op> allowed;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string name = list.substr(start, comma - start);
    start = comma + 1;
    if (name.empty()) continue;
    const std::optional<svc::Op> op = svc::op_named(name);
    if (!op) throw std::invalid_argument("--ops: unknown op '" + name + "'");
    allowed.push_back(*op);
  }
  return allowed;
}

/// The shared deterministic stream (svc/loadgen.h): request k of client c
/// is a pure function of (seed, c, k).
svc::Request make_request(const Options& options, int client, int index) {
  return svc::loadgen::make_request(stream_config(options), client, index);
}

/// Per-op latency distribution under --metrics-json. Off the measurement
/// path (the latency is already taken) and gated on obs::enabled(), so the
/// default run pays one load + branch per response.
void record_op_latency(svc::Op op, double latency_ms) {
  if (!obs::enabled()) return;
  obs::registry()
      .summary("loadgen/" + std::string(svc::to_string(op)) + "_latency_ms")
      .record(latency_ms);
}

struct ClientResult {
  std::vector<double> latencies_ms;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t errors = 0;    // ok:false responses that are not overloads
  std::size_t rejected = 0;  // overload rejections (retry_after_ms > 0)
  std::size_t retried = 0;   // open mode: deterministic re-sends
};

int connect_to(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line, carrying leftover bytes across calls.
bool recv_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

void tally_response(const std::string& line, ClientResult& result) {
  try {
    const svc::Response response = svc::parse_response(line);
    if (response.ok) {
      ++result.ok;
    } else if (response.retry_after_ms > 0) {
      ++result.rejected;
    } else {
      ++result.errors;
    }
  } catch (const svc::WireError&) {
    ++result.errors;
  }
}

ClientResult run_closed_client(const Options& options, int client) {
  ClientResult result;
  const int fd = connect_to(options.host, static_cast<int>(options.port));
  if (fd < 0) {
    result.errors = static_cast<std::size_t>(options.requests);
    return result;
  }
  std::string buffer;
  std::string line;
  for (int k = 0; k < options.requests; ++k) {
    const svc::Request request = make_request(options, client, k);
    const auto start = Clock::now();
    if (!send_line(fd, svc::format_request(request)) ||
        !recv_line(fd, buffer, line)) {
      ++result.errors;
      break;
    }
    const double latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    result.latencies_ms.push_back(latency_ms);
    record_op_latency(request.op, latency_ms);
    ++result.sent;
    tally_response(line, result);
    if (options.think_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options.think_ms));
    }
  }
  ::close(fd);
  return result;
}

ClientResult run_open_client(const Options& options, int client) {
  ClientResult result;
  const int fd = connect_to(options.host, static_cast<int>(options.port));
  if (fd < 0) {
    result.errors = static_cast<std::size_t>(options.requests);
    return result;
  }
  // Sender paces on the schedule's fixed fresh-request grid; receiver
  // matches in-order responses to send records and feeds overload
  // rejections back as deterministic retries (svc/loadgen.h).
  std::mutex mutex;
  svc::loadgen::OpenLoopSchedule schedule(static_cast<int>(options.requests),
                                          options.rate);
  std::deque<std::pair<int, Clock::time_point>> in_flight;
  const auto epoch = Clock::now();
  const auto now_s = [epoch] {
    return std::chrono::duration<double>(Clock::now() - epoch).count();
  };
  bool send_failed = false;

  std::thread receiver([&] {
    std::string buffer;
    std::string line;
    for (;;) {
      if (!recv_line(fd, buffer, line)) break;  // sender shut the socket
      int index = 0;
      Clock::time_point sent_at;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (in_flight.empty()) break;  // protocol violation; bail out
        index = in_flight.front().first;
        sent_at = in_flight.front().second;
        in_flight.pop_front();
      }
      const double latency_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - sent_at)
              .count();
      result.latencies_ms.push_back(latency_ms);
      // The request op is a pure function of (seed, client, index), so the
      // receiver regenerates it instead of threading it through in_flight.
      record_op_latency(make_request(options, client, index).op, latency_ms);
      try {
        const svc::Response response = svc::parse_response(line);
        if (response.ok) {
          ++result.ok;
        } else if (response.retry_after_ms > 0) {
          ++result.rejected;
          std::lock_guard<std::mutex> lock(mutex);
          schedule.note_rejected(
              index, now_s(),
              static_cast<double>(response.retry_after_ms));
        } else {
          ++result.errors;
        }
      } catch (const svc::WireError&) {
        ++result.errors;
      }
    }
  });

  for (;;) {
    svc::loadgen::OpenLoopSchedule::Action action;
    bool outstanding = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      action = schedule.next(now_s());
      outstanding = !in_flight.empty();
    }
    using Kind = svc::loadgen::OpenLoopSchedule::Action::Kind;
    if (action.kind == Kind::kDone) {
      // Every fresh request went out and no retry is pending, but an
      // in-flight response could still come back rejected and schedule
      // one — drain before declaring the stream finished.
      if (!outstanding) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (action.kind == Kind::kWait) {
      std::this_thread::sleep_until(
          epoch + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(action.wait_until)));
      continue;
    }
    const svc::Request request = make_request(options, client, action.index);
    {
      std::lock_guard<std::mutex> lock(mutex);
      in_flight.emplace_back(action.index, Clock::now());
    }
    if (!send_line(fd, svc::format_request(request))) {
      ++result.errors;
      send_failed = true;
      break;
    }
    ++result.sent;
  }
  // Unblock the receiver (it has consumed every pending response unless
  // the socket already failed) and finish.
  ::shutdown(fd, send_failed ? SHUT_WR : SHUT_RDWR);
  receiver.join();
  ::close(fd);
  result.retried = static_cast<std::size_t>(schedule.retries_sent());
  return result;
}

/// Closed-loop client routed through the cluster: fetch the routing table
/// from the coordinator, then send each request to the member owning its
/// shard (broadcasts fan out and re-merge). A not_owner rejection mid-run
/// (a live migration) refreshes the table and retries inside call(), so
/// the stream sees the same responses a single-process deployment gives.
ClientResult run_cluster_client(const Options& options, int client) {
  ClientResult result;
  auto control_conn = std::make_shared<cluster::LineClient>();
  auto pool = std::make_shared<cluster::MemberPool>();
  cluster::ClusterClient router(
      [pool](const cluster::ClusterMember& member,
             const svc::Request& request, svc::Response* out) {
        return pool->call(member, request, out);
      },
      [control_conn, host = options.ctl_host, port = options.ctl_port](
          const svc::WireObject& command, svc::WireObject* reply) {
        if (!control_conn->connected() &&
            !control_conn->connect(host, port)) {
          return false;
        }
        std::string line;
        if (!control_conn->exchange(svc::format_wire(command), &line)) {
          return false;
        }
        *reply = svc::parse_wire(line);
        return true;
      });
  if (!router.refresh_table()) {
    result.errors = static_cast<std::size_t>(options.requests);
    if (!options.quiet) {
      std::fprintf(stderr, "melody_loadgen: client %d: %s\n", client,
                   router.last_error().c_str());
    }
    return result;
  }
  for (int k = 0; k < options.requests; ++k) {
    const svc::Request request = make_request(options, client, k);
    svc::Response response;
    const auto start = Clock::now();
    if (!router.call(request, &response)) {
      ++result.errors;
      continue;
    }
    const double latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    result.latencies_ms.push_back(latency_ms);
    record_op_latency(request.op, latency_ms);
    ++result.sent;
    tally_response(svc::format_response(response), result);
    if (options.think_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options.think_ms));
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<util::Flags> flags;
  try {
    flags = std::make_unique<util::Flags>(argc, argv);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  Options options;
  try {
    options = read_options(*flags);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (flags->has("help")) return usage(nullptr);
  if (options.version) {
    std::printf("%s\n", util::build_info_line("melody_loadgen").c_str());
    return 0;
  }
  if (const auto unknown = flags->unused(); !unknown.empty()) {
    return usage(("unknown flag --" + unknown.front()).c_str());
  }
  if (options.mode != "closed" && options.mode != "open") {
    return usage("--mode must be closed or open");
  }
  if (!options.cluster.empty()) {
    if (!cluster::parse_endpoint(options.cluster, &options.ctl_host,
                                 &options.ctl_port)) {
      return usage("--cluster must be HOST:PORT");
    }
    if (options.mode != "closed") {
      return usage("--cluster requires --mode closed (open-loop in-order "
                   "matching does not survive broadcast fan-out)");
    }
    if (options.dry_run) {
      return usage("--cluster and --dry-run are mutually exclusive");
    }
  }
  if (options.clients < 1 || options.requests < 1 || options.workers < 1) {
    return usage("--clients/--requests/--workers must be positive");
  }
  if (!options.ops.empty() && !options.dry_run) {
    return usage("--ops only applies to --dry-run streams");
  }
  std::unique_ptr<obs::JsonLinesSink> metrics_sink;
  if (!options.metrics_json.empty() && !options.dry_run) {
    try {
      metrics_sink = std::make_unique<obs::JsonLinesSink>(options.metrics_json);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
    obs::set_sink(metrics_sink.get());
    obs::set_enabled(true);
  }

  std::vector<svc::Op> allowed;
  if (!options.ops.empty()) {
    try {
      allowed = parse_ops_filter(options.ops);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }

  if (options.dry_run) {
    // stdout stays pure request lines for piping into melody_serve --stdin.
    for (int c = 0; c < options.clients; ++c) {
      for (int k = 0; k < options.requests; ++k) {
        const svc::Request request = make_request(options, c, k);
        if (!allowed.empty() &&
            std::find(allowed.begin(), allowed.end(), request.op) ==
                allowed.end()) {
          continue;
        }
        std::puts(svc::format_request(request).c_str());
      }
    }
    return 0;
  }

  std::vector<ClientResult> results(
      static_cast<std::size_t>(options.clients));
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (int c = 0; c < options.clients; ++c) {
    threads.emplace_back([&options, &results, c] {
      results[static_cast<std::size_t>(c)] =
          !options.cluster.empty() ? run_cluster_client(options, c)
          : options.mode == "closed" ? run_closed_client(options, c)
                                     : run_open_client(options, c);
    });
  }
  for (std::thread& t : threads) t.join();

  const auto flush_metrics = [&] {
    if (metrics_sink == nullptr) return;
    metrics_sink->append_registry(obs::registry());
    obs::set_sink(nullptr);
    obs::set_enabled(false);
  };

  ClientResult total;
  for (const ClientResult& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.errors += r.errors;
    total.rejected += r.rejected;
    total.retried += r.retried;
    total.latencies_ms.insert(total.latencies_ms.end(), r.latencies_ms.begin(),
                              r.latencies_ms.end());
  }
  if (total.sent == 0) {
    if (!options.cluster.empty()) {
      std::fprintf(stderr,
                   "melody_loadgen: no requests completed — is melody_cluster "
                   "listening on %s?\n",
                   options.cluster.c_str());
    } else {
      std::fprintf(stderr,
                   "melody_loadgen: no requests completed — is melody_serve "
                   "running on %s:%d?\n",
                   options.host.c_str(), static_cast<int>(options.port));
    }
    flush_metrics();
    return 1;
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  const double mean = util::mean(total.latencies_ms);
  const double p50 = util::quantile(total.latencies_ms, 0.50);
  const double p90 = util::quantile(total.latencies_ms, 0.90);
  const double p99 = util::quantile(total.latencies_ms, 0.99);
  const double max =
      total.latencies_ms.empty() ? 0.0 : total.latencies_ms.back();

  if (!options.cluster.empty()) {
    std::printf(
        "melody_loadgen: %s loop, %lld clients x %lld requests via cluster "
        "%s\n",
        options.mode.c_str(), static_cast<long long>(options.clients),
        static_cast<long long>(options.requests), options.cluster.c_str());
  } else {
    std::printf(
        "melody_loadgen: %s loop, %lld clients x %lld requests against "
        "%s:%d\n",
        options.mode.c_str(), static_cast<long long>(options.clients),
        static_cast<long long>(options.requests), options.host.c_str(),
        static_cast<int>(options.port));
  }
  std::printf("  sent %zu  ok %zu  rejected %zu  retried %zu  errors %zu\n",
              total.sent, total.ok, total.rejected, total.retried,
              total.errors);
  std::printf("  latency ms: mean %.3f  p50 %.3f  p90 %.3f  p99 %.3f  max "
              "%.3f\n",
              mean, p50, p90, p99, max);

  bench::Reporter reporter(options.csv,
                           {"mode", "clients", "requests", "sent", "ok",
                            "rejected", "retried", "errors", "mean_ms",
                            "p50_ms", "p90_ms", "p99_ms", "max_ms"});
  reporter.row({options.mode, std::to_string(options.clients),
                std::to_string(options.requests), std::to_string(total.sent),
                std::to_string(total.ok), std::to_string(total.rejected),
                std::to_string(total.retried), std::to_string(total.errors),
                std::to_string(mean), std::to_string(p50),
                std::to_string(p90), std::to_string(p99),
                std::to_string(max)});
  if (reporter.active()) {
    std::printf("  summary CSV: %s\n", reporter.path().c_str());
  }
  flush_metrics();
  if (metrics_sink != nullptr) {
    std::printf("  metrics JSON: %s\n", options.metrics_json.c_str());
  }
  return 0;
}
