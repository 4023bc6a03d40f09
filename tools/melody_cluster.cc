// melody_cluster — the cluster coordinator process (melody::cluster).
//
// Launches (or adopts, with --no-spawn) K melody_serve members, each
// serving a contiguous slice of the global platform shards, and serves the
// line-JSON control protocol (cluster/coordinator.h) beside the members'
// data protocol: join/heartbeat from members, status/route_table for
// clients, and the operator verbs — migrate one shard live between
// processes, drain a member, publish recovery snapshots. All member state
// moves over the regular v5 data ops (shard_export / shard_import), so the
// coordinator itself holds nothing but the routing table.
//
// Scenario/seed flags mirror melody_serve (the shared
// svc::ServiceConfig::from_flags set): the coordinator validates the
// deployment shape once and writes it back with ServiceConfig::to_flags
// into the spawn argv (every flag-settable field, doubles at 17 significant
// digits), so every member runs the identical global config and the chaos
// harness can respawn a killed member from the spawn_args op alone.
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/net.h"
#include "svc/config.h"
#include "svc/event_loop.h"
#include "svc/shard.h"
#include "svc/wire.h"
#include "util/flags.h"

namespace {

using namespace melody;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct Options {
  svc::ServiceConfig service;
  std::string publish_dir = ".";
  std::string serve_bin;
  std::int64_t ctl_port = 7200;
  std::int64_t members = 2;
  std::int64_t heartbeat_ms = 1000;
  bool no_spawn = false;
  bool quiet = false;
};

Options read_options(const util::Flags& flags) {
  Options o;
  o.service = svc::ServiceConfig::from_flags(flags);
  o.ctl_port = flags.get_int("ctl-port", 7200, "PORT",
                             "control-protocol TCP port");
  o.members = flags.get_int("members", 2, "M",
                            "cluster members to spawn (and expect)");
  o.publish_dir = flags.get_string(
      "publish-dir", ".", "DIR",
      "directory for published snapshots and migration envelopes");
  o.serve_bin = flags.get_string(
      "serve-bin", "", "PATH",
      "melody_serve binary to spawn (default: beside this binary)");
  o.heartbeat_ms = flags.get_int("heartbeat-ms", 1000, "MS",
                                 "member heartbeat cadence (0 disables)");
  o.no_spawn = flags.has_switch(
      "no-spawn", "adopt externally started members instead of spawning "
                  "(members join with their own --cluster-shards)");
  o.quiet = flags.has_switch("quiet", "suppress the startup/status lines");
  return o;
}

/// The canonical argv (binary first) every member is spawned with: the
/// coordinator's ServiceConfig::to_flags() minus what stays with the
/// coordinator (checkpointing, the run-count exit), then the member-only
/// flags. Member identity (--cluster-member / --cluster-shards) is
/// appended per spawn.
std::vector<std::string> member_spawn_args(const Options& o) {
  svc::ServiceConfig member = o.service;
  member.checkpoint_path.clear();
  member.checkpoint_every = 0;
  member.exit_after_runs = 0;
  std::vector<std::string> args{o.serve_bin};
  for (std::string& flag : member.to_flags()) args.push_back(std::move(flag));
  args.push_back("--port=0");  // ephemeral; the member reports it on join
  args.push_back("--heartbeat-ms=" + std::to_string(o.heartbeat_ms));
  args.push_back("--cluster-ctl=127.0.0.1:" + std::to_string(o.ctl_port));
  args.push_back("--quiet");
  return args;
}

/// Poll-driven control-protocol server: one line in, one reply line out,
/// per connection. Single-threaded — Coordinator::handle serializes
/// anyway, and control traffic is a trickle next to the data plane.
class ControlServer {
 public:
  ControlServer(cluster::Coordinator& coordinator, int port)
      : coordinator_(coordinator) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("control: socket failed");
    const int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof enable);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
      throw std::runtime_error("control: cannot listen on port " +
                               std::to_string(port) + ": " +
                               std::strerror(errno));
    }
  }

  ~ControlServer() {
    for (const auto& [fd, buffer] : clients_) ::close(fd);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  /// Serve for up to `timeout_ms`, then return (the caller interleaves
  /// child reaping and the stop checks).
  void serve_once(int timeout_ms) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, buffer] : clients_) {
      fds.push_back({fd, POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready <= 0) return;
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) clients_.emplace(fd, std::string());
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      handle_readable(fds[i].fd);
    }
  }

 private:
  void handle_readable(int fd) {
    const auto it = clients_.find(fd);
    if (it == clients_.end()) return;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) {
      ::close(fd);
      clients_.erase(it);
      return;
    }
    it->second.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((newline = it->second.find('\n')) != std::string::npos) {
      const std::string line = it->second.substr(0, newline);
      it->second.erase(0, newline + 1);
      try {
        send_line(fd,
                  svc::format_wire(coordinator_.handle(svc::parse_wire(line))));
      } catch (const std::exception& e) {
        send_line(fd, failure_line(e.what()));
      }
    }
    if (it->second.size() > kMaxLine) {
      // A line this large is a framing bug, not a command: answer once and
      // drop the connection (there is no way to resynchronize).
      send_line(fd, failure_line("control: request line too long"));
      ::close(fd);
      clients_.erase(it);
    }
  }

  static std::string failure_line(const std::string& error) {
    svc::WireObject reply;
    reply.set("ok", svc::WireValue::of(false));
    reply.set("error", svc::WireValue::of(error));
    return svc::format_wire(reply);
  }

  static void send_line(int fd, std::string line) {
    line += "\n";
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t w =
          ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) break;
      sent += static_cast<std::size_t>(w);
    }
  }

  /// Cap on one buffered control line, the data plane's default.
  static inline const std::size_t kMaxLine = svc::EventLoopOptions{}.max_line;

  cluster::Coordinator& coordinator_;
  int listen_fd_ = -1;
  std::map<int, std::string> clients_;  // fd -> partial-line buffer
};

std::string shard_csv(int lo, int hi) {
  std::string csv;
  for (int s = lo; s < hi; ++s) {
    if (!csv.empty()) csv += ",";
    csv += std::to_string(s);
  }
  return csv.empty() ? "none" : csv;
}

}  // namespace

int main(int argc, char** argv) {
  util::CommandLine<Options> cli("melody_cluster",
                                 "Cluster coordinator: spawns melody_serve "
                                 "members, serves the control protocol "
                                 "(join/status/route_table/migrate/drain/"
                                 "publish), and drives live shard migration.",
                                 1, read_options);
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;
  Options& options = cli.options();
  if (options.members < 1) return cli.usage("--members must be >= 1");
  if (options.serve_bin.empty()) {
    const std::string self = argv[0];
    const std::size_t slash = self.rfind('/');
    options.serve_bin = (slash == std::string::npos
                             ? std::string(".")
                             : self.substr(0, slash)) +
                        "/melody_serve";
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    cluster::CoordinatorOptions coordinator_options;
    coordinator_options.shards = options.service.shards;
    coordinator_options.workers = options.service.scenario.num_workers;
    coordinator_options.expected_members =
        static_cast<int>(options.members);
    coordinator_options.publish_dir = options.publish_dir;
    coordinator_options.spawn_args = member_spawn_args(options);

    cluster::MemberPool pool;
    cluster::Coordinator coordinator(
        coordinator_options,
        [&pool](const cluster::ClusterMember& member,
                const svc::Request& request, svc::Response* out) {
          return pool.call(member, request, out);
        });
    ControlServer control(coordinator,
                          static_cast<int>(options.ctl_port));

    std::vector<pid_t> children;
    if (!options.no_spawn) {
      const int m = static_cast<int>(options.members);
      const std::vector<int> posts =
          svc::contiguous_split(options.service.shards, m);
      for (int i = 0; i < m; ++i) {
        const auto slot = static_cast<std::size_t>(i);
        std::vector<std::string> args = coordinator_options.spawn_args;
        args.push_back("--cluster-member=m" + std::to_string(i));
        args.push_back("--cluster-shards=" +
                       shard_csv(posts[slot], posts[slot + 1]));
        const pid_t pid = cluster::spawn_member(args);
        if (pid < 0) throw std::runtime_error("fork failed");
        children.push_back(pid);
      }
    }
    if (!options.quiet) {
      std::printf(
          "melody_cluster: control on 127.0.0.1:%d, %d member(s) %s, "
          "%d shard(s), publish dir %s\n",
          static_cast<int>(options.ctl_port),
          static_cast<int>(options.members),
          options.no_spawn ? "expected" : "spawned", options.service.shards,
          options.publish_dir.c_str());
      std::fflush(stdout);
    }

    bool announced_ready = false;
    while (g_stop == 0 && !coordinator.shutdown_requested()) {
      control.serve_once(200);
      if (!announced_ready && coordinator.ready()) {
        announced_ready = true;
        if (!options.quiet) {
          std::printf("melody_cluster: ready (%zu members joined)\n",
                      coordinator.table().members.size());
          std::fflush(stdout);
        }
      }
      // Reap members that exited (expected under the chaos harness; the
      // respawn re-joins and re-imports from the published envelopes).
      int status = 0;
      while (::waitpid(-1, &status, WNOHANG) > 0) {
      }
    }
    if (!coordinator.shutdown_requested()) {
      // SIGINT path: forward the shutdown so members drain cleanly.
      svc::WireObject cmd;
      cmd.set("cmd", svc::WireValue::of("shutdown"));
      coordinator.handle(cmd);
    }
    for (const pid_t pid : children) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    if (!options.quiet) {
      std::fprintf(stderr, "melody_cluster: stopped (epoch %lld)\n",
                   static_cast<long long>(coordinator.table().epoch));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "melody_cluster: %s\n", e.what());
    return 1;
  }
  return 0;
}
