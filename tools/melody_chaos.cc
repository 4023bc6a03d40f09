// melody_chaos — deterministic kill/restart harness for a live cluster.
//
// Drives a running melody_cluster deployment through R rounds of
//   submit B newcomer bids (acked -> ledger) -> publish snapshots
//   -> submit B more -> SIGKILL one member (round-robin) -> respawn it
//   bare (--cluster-shards none, so the coordinator re-imports its shards
//   from the published envelopes) -> wait for the routing epoch to advance
// and then asserts the durability contract:
//   * every submission acked before the last publish survives the kill
//     outright (a lost one is a hard failure — the recovery floor held);
//   * submissions acked after the publish are re-driven at-least-once
//     (the client-retry half of the contract) and must then be visible.
// The schedule is keyed to acknowledgment counts and a fixed seed, never
// to wall-clock time, so a failure reproduces.
//
// Exit status: 0 all rounds held, 1 a contract violation or a timeout
// (details on stderr).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client_router.h"
#include "cluster/net.h"
#include "cluster/routing.h"
#include "svc/protocol.h"
#include "svc/wire.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace melody;

struct Options {
  std::string ctl = "127.0.0.1:7200";
  std::string ctl_host;  // --ctl, split by main
  int ctl_port = 0;
  std::int64_t rounds = 3;
  std::int64_t batch = 16;
  std::int64_t seed = 2017;
  std::int64_t timeout_s = 50;
  bool quiet = false;
};

Options read_options(const util::Flags& flags) {
  Options o;
  o.ctl = flags.get_string("ctl", "127.0.0.1:7200", "HOST:PORT",
                           "coordinator control endpoint");
  o.rounds = flags.get_int("rounds", 3, "R", "kill/restart rounds");
  o.batch = flags.get_int("batch", 16, "B",
                          "newcomer submissions per phase (two per round)");
  o.seed = flags.get_int("seed", 2017, "S",
                         "seed for the deterministic bid stream");
  o.timeout_s = flags.get_int("timeout-s", 50, "SEC",
                              "overall wall-clock budget");
  o.quiet = flags.has_switch("quiet", "suppress the per-round lines");
  return o;
}

struct LedgerEntry {
  std::string worker;
  double cost = 1.0;
  int frequency = 1;
  bool durable = false;  // acked before the most recent publish
};

class Harness {
 public:
  explicit Harness(Options options)
      : options_(std::move(options)),
        ctl_(options_.ctl_host, options_.ctl_port) {}

  int run() {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::seconds(options_.timeout_s);
    client_ = std::make_unique<cluster::ClusterClient>(
        [this](const cluster::ClusterMember& member,
               const svc::Request& request, svc::Response* out) {
          return pool_.call(member, request, out);
        },
        [this](const svc::WireObject& command, svc::WireObject* reply) {
          return ctl_.call(command, reply);
        });

    if (!wait_ready()) return 1;
    if (!fetch_spawn_args()) return 1;
    if (!client_->refresh_table()) {
      return fail("route_table: " + client_->last_error());
    }

    util::Rng rng(static_cast<std::uint64_t>(options_.seed));
    for (std::int64_t round = 0; round < options_.rounds; ++round) {
      if (expired()) return fail("timed out before round " +
                                 std::to_string(round));
      if (!submit_batch(rng)) return 1;
      if (!publish()) return 1;
      if (!submit_batch(rng)) return 1;

      const cluster::RoutingTable table = client_->table();
      const std::size_t victim_index =
          static_cast<std::size_t>(round) % table.members.size();
      const cluster::ClusterMember victim = table.members[victim_index];
      if (!options_.quiet) {
        std::printf("melody_chaos: round %lld: killing %s (pid %lld)\n",
                    static_cast<long long>(round), victim.name.c_str(),
                    static_cast<long long>(victim.pid));
        std::fflush(stdout);
      }
      if (::kill(static_cast<pid_t>(victim.pid), SIGKILL) != 0) {
        return fail("kill " + victim.name + " failed");
      }
      pool_.drop(victim);
      if (!respawn(victim.name)) return 1;
      if (!wait_recovered(table.epoch, victim)) return 1;
      if (!verify_and_repair()) return 1;
      if (!options_.quiet) {
        std::printf(
            "melody_chaos: round %lld held (%zu ledger entries, "
            "%lld resubmitted)\n",
            static_cast<long long>(round), ledger_.size(),
            static_cast<long long>(resubmitted_));
        std::fflush(stdout);
      }
    }
    if (!verify_all_present("final sweep")) return 1;
    shutdown_cluster();
    if (!options_.quiet) {
      std::printf(
          "melody_chaos: PASS — %lld rounds, %zu acked submissions, "
          "%lld resubmitted after kills, 0 lost\n",
          static_cast<long long>(options_.rounds), ledger_.size(),
          static_cast<long long>(resubmitted_));
    }
    return 0;
  }

 private:
  bool expired() const {
    return std::chrono::steady_clock::now() >= deadline_;
  }

  int fail(const std::string& message) {
    std::fprintf(stderr, "melody_chaos: FAIL: %s\n", message.c_str());
    return 1;
  }

  bool wait_ready() {
    svc::WireObject status;
    status.set("cmd", svc::WireValue::of("status"));
    while (!expired()) {
      svc::WireObject reply;
      if (ctl_.call(status, &reply) && reply.boolean_or("ready", false)) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    fail("cluster never became ready");
    return false;
  }

  bool fetch_spawn_args() {
    svc::WireObject command;
    command.set("cmd", svc::WireValue::of("spawn_args"));
    svc::WireObject reply;
    if (!ctl_.call(command, &reply) || !reply.boolean_or("ok", false)) {
      fail("spawn_args fetch failed");
      return false;
    }
    const auto count = static_cast<std::size_t>(reply.number_or("count", 0));
    for (std::size_t i = 0; i < count; ++i) {
      spawn_args_.push_back(reply.text("arg" + std::to_string(i)));
    }
    if (spawn_args_.empty()) {
      fail("coordinator advertises no spawn args");
      return false;
    }
    return true;
  }

  bool submit_batch(util::Rng& rng) {
    for (std::int64_t i = 0; i < options_.batch; ++i) {
      LedgerEntry entry;
      entry.worker = "cw" + std::to_string(next_worker_++);
      entry.cost = 0.5 + 1.5 * rng.uniform01();
      entry.frequency = 1 + static_cast<int>(rng() % 3);
      svc::Response response;
      if (!submit_entry(entry, &response)) {
        fail("submit_bid " + entry.worker + ": " + client_->last_error());
        return false;
      }
      if (!response.ok) {
        fail("submit_bid " + entry.worker + " rejected: " + response.error);
        return false;
      }
      ledger_.push_back(entry);  // acked — from here on it must survive
    }
    return true;
  }

  bool submit_entry(const LedgerEntry& entry, svc::Response* response) {
    svc::Request request;
    request.op = svc::Op::kSubmitBid;
    request.id = next_request_id_++;
    request.worker = entry.worker;
    request.cost = entry.cost;
    request.frequency = entry.frequency;
    request.has_bid = true;
    // Backpressure is part of the protocol: retry overloads briefly.
    for (int attempt = 0; attempt < 50; ++attempt) {
      if (!client_->call(request, response)) return false;
      if (response->ok || response->retry_after_ms <= 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
  }

  bool publish() {
    svc::WireObject command;
    command.set("cmd", svc::WireValue::of("publish"));
    svc::WireObject reply;
    if (!ctl_.call(command, &reply) || !reply.boolean_or("ok", false)) {
      fail("publish failed: " + reply.text_or("error", "no reply"));
      return false;
    }
    for (LedgerEntry& entry : ledger_) entry.durable = true;
    return true;
  }

  bool respawn(const std::string& member) {
    std::vector<std::string> args = spawn_args_;
    args.push_back("--cluster-member=" + member);
    args.push_back("--cluster-shards=none");
    const pid_t pid = cluster::spawn_member(args);
    if (pid < 0) {
      fail("fork failed");
      return false;
    }
    children_.push_back(pid);
    return true;
  }

  /// Recovery is visible as an epoch advance (the respawn join re-imports
  /// and bumps the table) with the victim re-registered under a new pid.
  bool wait_recovered(std::int64_t old_epoch,
                      const cluster::ClusterMember& victim) {
    while (!expired()) {
      if (client_->refresh_table()) {
        const cluster::RoutingTable& table = client_->table();
        for (const cluster::ClusterMember& member : table.members) {
          if (member.name == victim.name && member.pid != victim.pid &&
              table.epoch > old_epoch) {
            pool_.drop(victim);  // the cached endpoint may have changed
            return true;
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    fail("recovery of " + victim.name + " timed out");
    return false;
  }

  bool verify_and_repair() {
    for (LedgerEntry& entry : ledger_) {
      svc::Request request;
      request.op = svc::Op::kQueryWorker;
      request.id = next_request_id_++;
      request.worker = entry.worker;
      svc::Response response;
      if (!client_->call(request, &response)) {
        fail("query_worker " + entry.worker + ": " + client_->last_error());
        return false;
      }
      if (response.ok) continue;
      if (entry.durable) {
        // The hard half of the contract: this submission was inside the
        // published snapshot the coordinator restored from.
        fail("durable submission " + entry.worker +
             " lost across a kill: " + response.error);
        return false;
      }
      // Acked after the last publish: at-least-once re-drive.
      if (!submit_entry(entry, &response) || !response.ok) {
        fail("resubmit " + entry.worker + " failed: " +
             (response.ok ? client_->last_error() : response.error));
        return false;
      }
      ++resubmitted_;
    }
    return true;
  }

  bool verify_all_present(const std::string& what) {
    for (const LedgerEntry& entry : ledger_) {
      svc::Request request;
      request.op = svc::Op::kQueryWorker;
      request.id = next_request_id_++;
      request.worker = entry.worker;
      svc::Response response;
      if (!client_->call(request, &response) || !response.ok) {
        fail(what + ": " + entry.worker + " missing");
        return false;
      }
    }
    return true;
  }

  void shutdown_cluster() {
    svc::WireObject command;
    command.set("cmd", svc::WireValue::of("shutdown"));
    svc::WireObject reply;
    ctl_.call(command, &reply);
    for (const pid_t pid : children_) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }

  Options options_;
  std::chrono::steady_clock::time_point deadline_;
  cluster::ControlClient ctl_;
  cluster::MemberPool pool_;
  std::unique_ptr<cluster::ClusterClient> client_;
  std::vector<std::string> spawn_args_;
  std::vector<LedgerEntry> ledger_;
  std::vector<pid_t> children_;
  std::int64_t next_worker_ = 0;
  std::int64_t next_request_id_ = 1;
  std::int64_t resubmitted_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::CommandLine<Options> cli("melody_chaos",
                                 "Chaos harness: kills and respawns cluster "
                                 "members mid-load on a deterministic schedule "
                                 "and asserts no acknowledged submission is "
                                 "lost past the last published snapshot.",
                                 1, read_options);
  if (const auto exit_code = cli.parse(argc, argv)) return *exit_code;
  Options& options = cli.options();
  if (options.rounds < 1) return cli.usage("--rounds must be >= 1");
  if (options.batch < 1) return cli.usage("--batch must be >= 1");
  if (!cluster::parse_endpoint(options.ctl, &options.ctl_host,
                               &options.ctl_port)) {
    return cli.usage("--ctl must be HOST:PORT");
  }

  std::signal(SIGPIPE, SIG_IGN);
  try {
    Harness harness(options);
    return harness.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "melody_chaos: %s\n", e.what());
    return 1;
  }
}
