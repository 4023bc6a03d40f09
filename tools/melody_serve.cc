// melody_serve — the online auction service (melody::svc) as a process.
//
// Serves the line-delimited JSON protocol of svc/protocol.h over TCP with a
// single nonblocking epoll event-loop thread (svc/event_loop.h) in front of
// K platform shards (--shards, svc/router.h): accept/read/write are all
// multiplexed on one thread, each shard runs its own consumer loop over its
// own bounded queue, and a full queue still answers "overloaded" with
// retry_after_ms — the backpressure contract is unchanged from the old
// thread-per-connection server, but a million registered workers no longer
// need a thread per client. --stdin serves one session over stdin/stdout so
// tests and CI pipelines need no networking.
//
// Scenario and seed flags mirror melody_sim (both parse the shared
// svc::ServiceConfig::from_flags set): with --manual-clock and a trace of
// submit_bid/tick lines, run outcomes at --shards 1 are bit-identical to
// the equivalent batch simulation. SIGINT drains the queues, executes due
// batches, writes a final composed checkpoint when --checkpoint is set
// (MLDYSVCK v2: one sub-snapshot per shard), and exits cleanly.
//
// --rolling turns the service into a continuous auction: every submit_tasks
// queues exactly one run against the standing bids (revised with the
// update_bid / withdraw_bid ops). Every service ranks from the platform's
// price-ladder bid book, bit-identical to a full re-sort.
//
// Cluster membership (--cluster-member): the process keeps the full
// global-K deployment config but only *activates* the shards named by
// --cluster-shards; frames for inactive shards answer a structured
// not_owner rejection, and the coordinator (melody_cluster) moves shards
// between members live with the v5 shard_export / shard_import ops. With
// --cluster-ctl the member announces itself to the coordinator after
// binding (reporting the actual port, so --port 0 works) and heartbeats
// until shutdown.
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/net.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "svc/config.h"
#include "svc/event_loop.h"
#include "svc/frame.h"
#include "svc/router.h"
#include "svc/trace_log.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace {

using namespace melody;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct Options {
  svc::ServiceConfig service;
  std::string resume_path;
  std::string metrics_path;
  std::string trace_path;
  std::string cluster_member;
  std::string cluster_shards = "all";
  std::string cluster_ctl;
  std::int64_t heartbeat_ms = 1000;
  std::int64_t epoch = 1;
  std::int64_t port = 7117;
  std::int64_t threads = 1;
  bool stdin_mode = false;
  bool trace = false;
  bool quiet = false;
};

Options read_options(const util::Flags& flags) {
  Options o;
  o.service = svc::ServiceConfig::from_flags(flags);
  o.resume_path = flags.get_string("resume", "", "PATH",
                                   "resume from a service checkpoint");
  o.metrics_path = flags.get_string(
      "metrics-json", "", "PATH",
      "enable observability and write metric summaries to PATH at exit");
  o.trace_path = flags.get_string(
      "trace-out", "", "PATH",
      "record every wire frame to an MLDYTRC trace at PATH (atomic tmp + "
      "rename; replay with melody_replay)");
  o.trace = flags.has_switch(
      "trace", "enable request tracing (span minting + trace ids in "
               "--trace-out) without a --metrics-json sink");
  o.port = flags.get_int("port", 7117, "PORT", "TCP port to listen on");
  o.threads = flags.get_int("threads", 1, "T",
                            "worker threads for run execution (0: all "
                            "hardware threads)");
  o.stdin_mode = flags.has_switch(
      "stdin", "serve one session over stdin/stdout instead of TCP");
  o.cluster_member = flags.get_string(
      "cluster-member", "", "NAME",
      "join a cluster as member NAME (activates cluster routing: frames "
      "for shards this process does not own answer not_owner)");
  o.cluster_shards = flags.get_string(
      "cluster-shards", "all", "SPEC",
      "global shards this member serves: \"all\", \"none\" (respawn — the "
      "coordinator re-imports), or a comma list like \"0,3,5\"");
  o.cluster_ctl = flags.get_string(
      "cluster-ctl", "", "HOST:PORT",
      "coordinator control endpoint to join and heartbeat against");
  o.heartbeat_ms = flags.get_int(
      "heartbeat-ms", 1000, "MS",
      "coordinator heartbeat cadence (0 disables)");
  o.epoch = flags.get_int("epoch", 1, "E", "initial routing epoch");
  o.quiet = flags.has_switch("quiet", "suppress the startup/summary lines");
  return o;
}

/// "all" / "none" / "0,3,5" -> activity mask over the K global shards.
/// Throws std::invalid_argument on a malformed spec.
std::uint64_t parse_shard_spec(const std::string& spec, const int shards,
                               std::vector<int>* active) {
  if (spec == "all") {
    for (int s = 0; s < shards; ++s) active->push_back(s);
    return shards >= 64 ? ~0ull : (1ull << shards) - 1;
  }
  if (spec == "none") return 0;
  std::uint64_t mask = 0;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(pos, end - pos);
    std::size_t used = 0;
    int s = -1;
    try {
      s = std::stoi(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != token.size() || s < 0 || s >= shards) {
      throw std::invalid_argument("--cluster-shards: bad shard \"" + token +
                                  "\"");
    }
    mask |= 1ull << static_cast<unsigned>(s);
    active->push_back(s);
    pos = end + 1;
  }
  return mask;
}

std::size_t total_session_runs(const svc::ShardedService& service) {
  std::size_t runs = 0;
  for (int s = 0; s < service.shard_count(); ++s) {
    runs += service.shard(s).service().records().size();
  }
  return runs;
}

}  // namespace

int main(int argc, char** argv) {
  util::CommandLine<Options> cli("melody_serve",
                                 "Online MELODY auction service: sharded "
                                 "platform, epoll front end, bounded queues, "
                                 "batched runs, checkpointed state.",
                                 1, read_options);
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;
  Options& options = cli.options();
  if (options.port < 0 || options.port > 65535) {
    return cli.usage("--port must be in [0, 65535] (0: ephemeral)");
  }
  std::string ctl_host;
  int ctl_port = 0;
  if (!options.cluster_ctl.empty() &&
      !cluster::parse_endpoint(options.cluster_ctl, &ctl_host, &ctl_port)) {
    return cli.usage("--cluster-ctl must be HOST:PORT");
  }
  // Before parse_shard_spec builds the 64-bit activity mask.
  if (!options.cluster_member.empty() &&
      options.service.shards > svc::ShardedService::kMaxClusterShards) {
    return cli.usage("--cluster-member supports at most 64 shards (activity "
                     "mask width)");
  }

  util::set_shared_thread_count(static_cast<int>(options.threads));

  std::optional<obs::MetricsFile> metrics;
  if (!options.metrics_path.empty()) {
    try {
      metrics.emplace(options.metrics_path);
    } catch (const std::exception& e) {
      return cli.usage(e.what());
    }
  }
  if (options.trace) obs::set_enabled(true);

  int exit_code = 0;
  try {
    svc::ShardedService service(std::move(options.service));
    if (!options.resume_path.empty()) service.restore(options.resume_path);

    std::vector<int> active_shards;
    if (!options.cluster_member.empty()) {
      const std::uint64_t mask = parse_shard_spec(
          options.cluster_shards, service.shard_count(), &active_shards);
      service.configure_cluster(mask, options.epoch);
    }

    std::unique_ptr<svc::TraceRecorder> recorder;
    if (!options.trace_path.empty()) {
      recorder = std::make_unique<svc::TraceRecorder>(options.trace_path);
      recorder->set_resume_path(options.resume_path);
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);

    if (options.stdin_mode) {
      const svc::FrameTally result =
          svc::run_stdio_session(service, std::cin, std::cout, recorder.get());
      service.finalize();
      if (recorder != nullptr) recorder->finish();
      if (!options.quiet) {
        const std::string trace_note =
            recorder == nullptr
                ? ""
                : " (trace " + options.trace_path + ", " +
                      std::to_string(recorder->frames()) + " frames)";
        std::fprintf(stderr,
                     "melody_serve: %llu requests, %llu parse errors, %llu "
                     "rejected, %zu runs this session across %d shard(s)%s%s\n",
                     static_cast<unsigned long long>(result.requests),
                     static_cast<unsigned long long>(result.parse_errors),
                     static_cast<unsigned long long>(result.rejected),
                     total_session_runs(service), service.shard_count(),
                     service.shutdown_requested() ? " (shutdown op)" : "",
                     trace_note.c_str());
      }
    } else {
      svc::EventLoopOptions loop_options;
      loop_options.port = static_cast<int>(options.port);
      loop_options.should_stop = [] { return g_stop != 0; };
      loop_options.recorder = recorder.get();
      svc::EventLoop front(service, loop_options);
      front.listen();
      service.start();
      if (!options.quiet) {
        std::printf(
            "melody_serve: listening on port %d (%d shard(s), queue %lld "
            "per shard)\n",
            front.actual_port(), service.shard_count(),
            static_cast<long long>(service.config().queue_capacity));
        std::fflush(stdout);
      }
      // Cluster agent: join the coordinator (retrying while it comes up),
      // then heartbeat. Runs beside front.run() — a respawn join makes the
      // coordinator send shard_import RPCs back to this very process, so
      // the data plane must already be serving when the join lands.
      std::atomic<bool> agent_stop{false};
      std::thread agent;
      if (!options.cluster_member.empty() && !options.cluster_ctl.empty()) {
        svc::WireObject join;
        join.set("cmd", svc::WireValue::of("join"));
        join.set("member", svc::WireValue::of(options.cluster_member));
        join.set("host", svc::WireValue::of("127.0.0.1"));
        join.set("port", svc::WireValue::of(
                             static_cast<std::int64_t>(front.actual_port())));
        join.set("pid", svc::WireValue::of(
                            static_cast<std::int64_t>(::getpid())));
        join.set("shards",
                 svc::WireValue::of(std::vector<double>(
                     active_shards.begin(), active_shards.end())));
        agent = std::thread([&agent_stop, ctl_host, ctl_port, join,
                             member = options.cluster_member,
                             beat_ms = options.heartbeat_ms] {
          const auto idle = [&agent_stop](std::int64_t ms) {
            for (std::int64_t waited = 0;
                 waited < ms && !agent_stop.load(std::memory_order_relaxed);
                 waited += 50) {
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
            }
          };
          cluster::ControlClient ctl(ctl_host, ctl_port);
          svc::WireObject reply;
          while (!agent_stop.load(std::memory_order_relaxed)) {
            if (ctl.call(join, &reply)) {
              if (reply.boolean_or("ok", false)) break;
              std::fprintf(stderr, "melody_serve: cluster join: %s\n",
                           reply.text_or("error", "rejected").c_str());
            }
            idle(200);
          }
          if (beat_ms <= 0) return;
          svc::WireObject beat;
          beat.set("cmd", svc::WireValue::of("heartbeat"));
          beat.set("member", svc::WireValue::of(member));
          while (!agent_stop.load(std::memory_order_relaxed)) {
            ctl.call(beat, &reply);
            idle(beat_ms);
          }
        });
      }
      const svc::EventLoopStats stats = front.run();
      agent_stop.store(true, std::memory_order_relaxed);
      if (agent.joinable()) agent.join();
      service.finalize();
      if (recorder != nullptr) recorder->finish();
      if (!options.quiet) {
        std::string note = service.config().checkpoint_path.empty()
                               ? ""
                               : " (checkpoint " +
                                     service.config().checkpoint_path + ")";
        if (recorder != nullptr) {
          note += " (trace " + options.trace_path + ", " +
                  std::to_string(recorder->frames()) + " frames)";
        }
        // The full drain summary: every EventLoopStats tally, so operators
        // see parse errors and backpressure without scraping the stats op.
        std::fprintf(stderr,
                     "melody_serve: stopped after %llu connections, %llu "
                     "requests, %llu parse errors, %llu rejected, %llu "
                     "flushes, %zu runs%s\n",
                     static_cast<unsigned long long>(stats.accepted),
                     static_cast<unsigned long long>(stats.frames.requests),
                     static_cast<unsigned long long>(stats.frames.parse_errors),
                     static_cast<unsigned long long>(stats.frames.rejected),
                     static_cast<unsigned long long>(stats.flushes),
                     total_session_runs(service), note.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "melody_serve: %s\n", e.what());
    exit_code = 1;
  }

  if (metrics) metrics->finish();
  return exit_code;
}
