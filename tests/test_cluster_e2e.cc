// End-to-end cluster exercises over real processes and real TCP: a
// coordinator (tools/melody_cluster) spawning two melody_serve members,
// driven through the control port with cluster::ControlClient — live
// migration plus publish — and the chaos harness (tools/melody_chaos)
// kill/respawn rounds asserting no acknowledged submission is lost.
// Real networking, fork/exec and multi-second recovery loops, so this
// suite lives outside tier-1; CI bounds it via the chaos --timeout-s.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cluster/net.h"
#include "svc/wire.h"

#ifndef MELODY_TOOL_DIR
#error "MELODY_TOOL_DIR must point at the built tools directory"
#endif

namespace melody::cluster {
namespace {

std::string tool(const char* name) {
  return std::string(MELODY_TOOL_DIR) + "/" + name;
}

/// A port unlikely to collide across parallel ctest jobs.
int pick_port(int salt) {
  return 7300 + ((static_cast<int>(::getpid()) * 7 + salt) % 600);
}

pid_t spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::perror("execv");
    ::_exit(127);
  }
  return pid;
}

/// Wait for `pid` to exit, failing the test after `timeout`.
int wait_exit(pid_t pid, std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      ADD_FAILURE() << "process " << pid << " had to be killed";
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

/// One control-plane exchange; empty reply object on failure.
svc::WireObject control(ControlClient& client,
                        const svc::WireObject& command) {
  svc::WireObject reply;
  client.call(command, &reply);
  return reply;
}

svc::WireObject cmd(const char* name) {
  svc::WireObject command;
  command.set("cmd", svc::WireValue::of(name));
  return command;
}

bool wait_ready(ControlClient& client,
                std::chrono::seconds timeout = std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    const svc::WireObject status = control(client, cmd("status"));
    if (status.boolean_or("ready", false)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  return false;
}

std::vector<std::string> cluster_args(int port, const std::string& dir) {
  return {tool("melody_cluster"), "--shards", "8",  "--workers", "40",
          "--tasks", "32",        "--runs",   "400", "--members", "2",
          "--ctl-port", std::to_string(port),  "--publish-dir", dir,
          "--quiet"};
}

TEST(ClusterE2E, LiveMigrationAndPublishOverTcp) {
  const int port = pick_port(0);
  const std::string dir = "cluster_e2e_migrate_tmp";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const pid_t coordinator = spawn(cluster_args(port, dir));
  ASSERT_GT(coordinator, 0);
  ControlClient client("127.0.0.1", port);
  ASSERT_TRUE(wait_ready(client)) << "cluster never became ready";

  // Live migration: shard 2 (owned by m0 under the contiguous split) hops
  // to m1; the epoch advances and the envelope lands in the publish dir.
  svc::WireObject migrate = cmd("migrate");
  migrate.set("shard", svc::WireValue::of(std::int64_t{2}));
  migrate.set("to", svc::WireValue::of("m1"));
  const svc::WireObject migrated = control(client, migrate);
  ASSERT_TRUE(migrated.boolean_or("ok", false))
      << migrated.text_or("error", "<no reply>");
  EXPECT_EQ(static_cast<std::int64_t>(migrated.number("epoch")), 2);
  EXPECT_GE(migrated.number("pause_ms"), 0.0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/shard2_e2_migrate.mldymigr"));

  // Publish snapshots every shard without moving anything.
  const svc::WireObject published = control(client, cmd("publish"));
  ASSERT_TRUE(published.boolean_or("ok", false));
  for (int s = 0; s < 8; ++s) {
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/shard" + std::to_string(s) + "_e2_publish.mldymigr"))
        << "shard " << s;
  }

  const svc::WireObject table = control(client, cmd("route_table"));
  ASSERT_TRUE(table.boolean_or("ok", false));
  const std::vector<double>& owner = table.number_list("owner");
  ASSERT_EQ(owner.size(), 8u);
  // owner[] holds member indices in join order, and the two members race to
  // join — compare the owner's name, not its index.
  EXPECT_EQ(table.text("member" + std::to_string(static_cast<int>(owner[2])) +
                       "_name"),
            "m1")
      << "shard 2 must now live on m1";

  EXPECT_TRUE(control(client, cmd("shutdown")).boolean_or("ok", false));
  client.close();
  EXPECT_EQ(wait_exit(coordinator, std::chrono::seconds(20)), 0);
}

TEST(ClusterE2E, ChaosKillsLoseNoAckedSubmission) {
  const int port = pick_port(1);
  const std::string dir = "cluster_e2e_chaos_tmp";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const pid_t coordinator = spawn(cluster_args(port, dir));
  ASSERT_GT(coordinator, 0);

  const pid_t chaos = spawn({tool("melody_chaos"), "--ctl",
                             "127.0.0.1:" + std::to_string(port), "--rounds",
                             "2", "--batch", "8", "--timeout-s", "50"});
  ASSERT_GT(chaos, 0);
  EXPECT_EQ(wait_exit(chaos, std::chrono::seconds(55)), 0)
      << "chaos harness reported a lost acked submission or no recovery";
  // The harness shuts the cluster down on success.
  EXPECT_EQ(wait_exit(coordinator, std::chrono::seconds(20)), 0);
}

TEST(ClusterE2E, OverlongControlLineClosesOnlyThatConnection) {
  // No members and no migration: the coordinator alone, serving its
  // control port.
  const int port = pick_port(2);
  const pid_t coordinator =
      spawn({tool("melody_cluster"), "--no-spawn", "--members", "1",
             "--ctl-port", std::to_string(port), "--quiet"});
  ASSERT_GT(coordinator, 0);
  ControlClient client("127.0.0.1", port);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!control(client, cmd("ping")).boolean_or("ok", false)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "coordinator never answered ping";
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  client.close();

  // 2 MiB with no newline: past the 1 MiB line cap, the coordinator must
  // answer once and close this connection instead of buffering on.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string flood(std::size_t{2} << 20, 'x');
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;  // the coordinator closed the connection mid-flood
    sent += static_cast<std::size_t>(n);
  }
  std::string received;
  bool closed = false;
  for (;;) {
    char buffer[4096];
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      received.append(buffer, static_cast<std::size_t>(n));
      continue;
    }
    closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    break;
  }
  ::close(fd);
  EXPECT_TRUE(closed) << "connection still open after a 2 MiB line";
  // The error reply can be lost to the reset the unread flood causes; when
  // it arrives it is a structured failure.
  if (!received.empty()) {
    EXPECT_EQ(svc::parse_wire(received.substr(0, received.find('\n')))
                  .boolean_or("ok", true),
              false)
        << received;
  }

  // The coordinator serves on: a fresh connection gets its ping.
  EXPECT_TRUE(control(client, cmd("ping")).boolean_or("ok", false));
  EXPECT_TRUE(control(client, cmd("shutdown")).boolean_or("ok", false));
  client.close();
  EXPECT_EQ(wait_exit(coordinator, std::chrono::seconds(20)), 0);
}

}  // namespace
}  // namespace melody::cluster
