// Cluster coordinator + live shard migration (src/cluster/): routing-table
// math against plan_shards, the wire encoding round-trip, not_owner
// rejection semantics, the shard_export/shard_import envelope round-trip,
// the coordinator's control protocol over an in-process data plane, and
// the headline contract — an 8-shard deployment that live-migrates shards
// mid-stream answers every request byte-identically to one that never
// moved (under the replay volatile mask, plus the cluster-only routing
// epoch), at 1, 2 and 8 run-execution threads.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/client_router.h"
#include "cluster/coordinator.h"
#include "cluster/net.h"
#include "cluster/routing.h"
#include "svc/config.h"
#include "svc/protocol.h"
#include "svc/replay.h"
#include "svc/router.h"
#include "svc/shard.h"
#include "util/thread_pool.h"

namespace melody::cluster {
namespace {

using svc::Op;
using svc::PushResult;
using svc::Request;
using svc::Response;
using svc::ServiceConfig;
using svc::ShardedService;
using svc::WireObject;
using svc::WireValue;

constexpr std::uint64_t kSeed = 2017;

ServiceConfig cluster_config(int shards, int workers = 40) {
  ServiceConfig config;
  config.scenario.num_workers = workers;
  config.scenario.num_tasks = 32;
  config.scenario.runs = 64;
  config.scenario.budget = 160.0;
  config.seed = kSeed;
  config.manual_clock = true;
  config.shards = shards;
  return config;
}

Request bid_for(int worker, std::int64_t id) {
  Request r;
  r.op = Op::kSubmitBid;
  r.id = id;
  r.worker = "w" + std::to_string(worker);
  return r;
}

std::uint64_t mask_of(std::initializer_list<int> shards) {
  std::uint64_t mask = 0;
  for (const int s : shards) mask |= (1ull << static_cast<unsigned>(s));
  return mask;
}

/// Single-threaded synchronous drive: submit one request and poll the
/// shards until the (possibly merged) response lands — the same loop
/// svc::replay_trace uses.
Response drive(ShardedService& service, const Request& request) {
  Response out;
  bool delivered = false;
  const PushResult pushed =
      service.submit(request, [&out, &delivered](const Response& response) {
        out = response;
        delivered = true;
      });
  if (pushed != PushResult::kOk) return service.rejection(pushed, request);
  while (!delivered) {
    if (!service.poll_once(std::chrono::nanoseconds{0})) break;
  }
  EXPECT_TRUE(delivered);
  return out;
}

// ------------------------------------------------------- routing table --

TEST(Endpoint, ParsesHostPortAndRefusesMalformedEndpoints) {
  std::string host;
  int port = 0;
  ASSERT_TRUE(parse_endpoint("127.0.0.1:7200", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7200);
  ASSERT_TRUE(parse_endpoint("localhost:65535", &host, &port));
  EXPECT_EQ(port, 65535);
  for (const char* bad :
       {"", "7200", ":7200", "host:", "host:0", "host:65536", "host:99999",
        "host:-1", "host:+80", "host: 80", "host:80x", "host:4294967297"}) {
    EXPECT_FALSE(parse_endpoint(bad, &host, &port)) << bad;
  }
}

/// The one contiguous split: plan_shards' worker offsets and slice sizes
/// (workers, tasks, min_bids), the routing table's fence posts and
/// melody_cluster's member shard ranges all come from it.
TEST(WorkerOffsets, MatchesPlanShardsSplit) {
  const struct {
    int workers;
    int shards;
  } cases[] = {{42, 4}, {40, 8}, {7, 3}, {5, 5}, {9, 1}};
  for (const auto& c : cases) {
    ServiceConfig config = cluster_config(c.shards, c.workers);
    config.scenario.num_tasks = std::max(c.shards, 4) + 3;
    config.batch.min_bids = 2 * c.shards + 1;
    const std::vector<svc::ShardPlan> plans = svc::plan_shards(config);
    const std::vector<int> offsets =
        svc::contiguous_split(c.workers, c.shards);
    const std::vector<int> tasks =
        svc::contiguous_split(config.scenario.num_tasks, c.shards);
    const std::vector<int> min_bids =
        svc::contiguous_split(config.batch.min_bids, c.shards);
    ASSERT_EQ(offsets.size(), static_cast<std::size_t>(c.shards) + 1);
    EXPECT_EQ(offsets.front(), 0);
    EXPECT_EQ(offsets.back(), c.workers);
    for (int s = 0; s < c.shards; ++s) {
      const auto i = static_cast<std::size_t>(s);
      const ServiceConfig& shard = plans[i].config;
      EXPECT_EQ(offsets[i], plans[i].worker_offset)
          << c.workers << " workers / " << c.shards << " shards, shard " << s;
      // The first total%K slices take one extra unit, in closed form.
      EXPECT_EQ(offsets[i], s * (c.workers / c.shards) +
                                std::min(s, c.workers % c.shards));
      EXPECT_EQ(offsets[i + 1] - offsets[i], shard.scenario.num_workers);
      if (c.shards > 1) {
        EXPECT_EQ(tasks[i + 1] - tasks[i], shard.scenario.num_tasks);
        EXPECT_EQ(min_bids[i + 1] - min_bids[i], shard.batch.min_bids);
      }
    }
  }
  // More parts than units (melody_cluster with more members than shards):
  // the trailing slices are empty.
  EXPECT_EQ(svc::contiguous_split(2, 4), (std::vector<int>{0, 1, 2, 2, 2}));
}

TEST(WorkerOffsets, RejectsNonPositiveCounts) {
  EXPECT_THROW(svc::contiguous_split(0, 4), std::invalid_argument);
  EXPECT_THROW(svc::contiguous_split(4, 0), std::invalid_argument);
}

TEST(RoutingTable, EncodeDecodeRoundTrip) {
  RoutingTable table;
  table.epoch = 7;
  table.shards = 4;
  table.workers = 42;
  table.owner = {0, 0, 1, 0};
  table.worker_offsets = svc::contiguous_split(42, 4);
  table.members.push_back(ClusterMember{"alpha", "127.0.0.1", 7301, 101});
  table.members.push_back(ClusterMember{"beta", "127.0.0.1", 7302, 102});

  const RoutingTable decoded = RoutingTable::decode(table.encode());
  EXPECT_EQ(decoded.epoch, table.epoch);
  EXPECT_EQ(decoded.shards, table.shards);
  EXPECT_EQ(decoded.workers, table.workers);
  EXPECT_EQ(decoded.owner, table.owner);
  EXPECT_EQ(decoded.worker_offsets, table.worker_offsets);
  ASSERT_EQ(decoded.members.size(), 2u);
  EXPECT_EQ(decoded.members[0].name, "alpha");
  EXPECT_EQ(decoded.members[1].port, 7302);
  EXPECT_EQ(decoded.members[1].pid, 102);
  EXPECT_TRUE(decoded.complete());

  // The wire form survives a format/parse cycle too (the control channel).
  const RoutingTable reparsed =
      RoutingTable::decode(svc::parse_wire(svc::format_wire(table.encode())));
  EXPECT_EQ(reparsed.owner, table.owner);
}

TEST(RoutingTable, DecodeRejectsInconsistentShape) {
  RoutingTable table;
  table.epoch = 1;
  table.shards = 4;
  table.workers = 8;
  table.owner = {0, 0, 0};  // three owners for four shards
  table.worker_offsets = svc::contiguous_split(8, 4);
  table.members.push_back(ClusterMember{"a", "127.0.0.1", 7301, 1});
  EXPECT_THROW(RoutingTable::decode(table.encode()), std::invalid_argument);
}

TEST(RoutingTable, ShardForMatchesRouterDecision) {
  ServiceConfig config = cluster_config(4, 42);
  ShardedService service(config);
  RoutingTable table;
  table.epoch = 1;
  table.shards = 4;
  table.workers = 42;
  table.owner = {0, 0, 0, 0};
  table.worker_offsets = svc::contiguous_split(42, 4);
  table.members.push_back(ClusterMember{"solo", "127.0.0.1", 7301, 1});
  for (int w = 0; w < 42; ++w) {
    const Request request = bid_for(w, w + 1);
    EXPECT_EQ(svc::routing_decision(request, table.worker_offsets,
                                    table.workers),
              service.routing_decision(request))
        << "worker w" << w;
  }
  // Names outside the contiguous population still route consistently
  // (hash fallback on both sides).
  const Request newcomer = [] {
    Request r;
    r.op = Op::kSubmitBid;
    r.id = 99;
    r.worker = "cw7";
    r.cost = 1.0;
    r.frequency = 1;
    r.has_bid = true;
    return r;
  }();
  EXPECT_EQ(svc::routing_decision(newcomer, table.worker_offsets,
                                  table.workers),
            service.routing_decision(newcomer));
}

// ---------------------------------------------------- not_owner + export --

TEST(ClusterMode, InactiveShardAnswersNotOwner) {
  ShardedService member(cluster_config(4, 42));
  member.configure_cluster(mask_of({0, 1}), /*epoch=*/3);
  // Worker w40 lives in shard 3 (offsets 0/11/22/32) — not owned here.
  const Response rejected = drive(member, bid_for(40, 1));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.error, "not_owner");
  EXPECT_EQ(static_cast<int>(rejected.fields.number("shard")), 3);
  EXPECT_EQ(static_cast<std::int64_t>(rejected.fields.number("epoch")), 3);
  // An owned shard still serves.
  const Response accepted = drive(member, bid_for(0, 2));
  EXPECT_TRUE(accepted.ok);
}

TEST(ClusterMode, ExportImportRoundTripPreservesShardState) {
  const std::string dir = "cluster_export_tmp";
  std::filesystem::create_directories(dir);
  const std::string envelope = dir + "/shard1.mldymigr";

  ShardedService source(cluster_config(4, 42));
  source.configure_cluster(mask_of({0, 1, 2, 3}), 1);
  ShardedService target(cluster_config(4, 42));
  target.configure_cluster(0, 1);

  // Two full participation rounds: every shard fires two runs.
  std::int64_t id = 1;
  for (int round = 0; round < 2; ++round) {
    for (int w = 0; w < 42; ++w) drive(source, bid_for(w, id++));
  }
  Request probe;
  probe.op = Op::kQueryWorker;
  probe.id = id++;
  probe.worker = "w12";  // shard 1 (offsets 0/11/22/32)
  const Response before = drive(source, probe);
  ASSERT_TRUE(before.ok);

  Request export_req;
  export_req.op = Op::kShardExport;
  export_req.id = id++;
  export_req.shard = 1;
  export_req.path = envelope;
  export_req.detach = true;
  export_req.epoch = 2;
  const Response exported = drive(source, export_req);
  ASSERT_TRUE(exported.ok) << exported.error;
  EXPECT_TRUE(std::filesystem::exists(envelope));

  // The detach took: the source no longer owns shard 1.
  probe.id = id++;
  const Response gone = drive(source, probe);
  EXPECT_FALSE(gone.ok);
  EXPECT_EQ(gone.error, "not_owner");
  EXPECT_EQ(source.routing_epoch(), 2);

  Request import_req;
  import_req.op = Op::kShardImport;
  import_req.id = id++;
  import_req.shard = 1;
  import_req.path = envelope;
  import_req.epoch = 2;
  const Response imported = drive(target, import_req);
  ASSERT_TRUE(imported.ok) << imported.error;
  EXPECT_TRUE(target.shard_active(1));

  // The migrated shard answers exactly as the source did pre-detach.
  probe.id = before.id;
  const Response after = drive(target, probe);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(svc::format_response(after), svc::format_response(before));
}

// ------------------------------------------------------------ coordinator --

/// In-process cluster: every member is a full global-K service restricted
/// to its mask, addressed by name through the injected DataRpc.
struct InProcessCluster {
  explicit InProcessCluster(const ServiceConfig& config) : config_(config) {}

  ShardedService& add_member(const std::string& name,
                             std::initializer_list<int> shards) {
    auto service = std::make_unique<ShardedService>(config_);
    std::uint64_t mask = mask_of(shards);
    service->configure_cluster(mask, 1);
    ShardedService& ref = *service;
    members_[name] = std::move(service);
    return ref;
  }

  Coordinator::DataRpc rpc() {
    return [this](const ClusterMember& member, const Request& request,
                  Response* out) {
      const auto it = members_.find(member.name);
      if (it == members_.end()) return false;
      *out = drive(*it->second, request);
      return true;
    };
  }

  WireObject join(Coordinator& coordinator, const std::string& name,
                  std::initializer_list<int> shards, int port,
                  std::int64_t pid) {
    WireObject command;
    command.set("cmd", WireValue::of("join"));
    command.set("member", WireValue::of(name));
    command.set("host", WireValue::of("127.0.0.1"));
    command.set("port", WireValue::of(static_cast<std::int64_t>(port)));
    command.set("pid", WireValue::of(pid));
    std::vector<double> list;
    for (const int s : shards) list.push_back(s);
    command.set("shards", WireValue::of(std::move(list)));
    return coordinator.handle(command);
  }

  ServiceConfig config_;
  std::map<std::string, std::unique_ptr<ShardedService>> members_;
};

WireObject command_of(std::initializer_list<std::pair<const char*, WireValue>>
                          fields) {
  WireObject command;
  for (const auto& [key, value] : fields) command.set(key, value);
  return command;
}

TEST(Coordinator, JoinStatusMigratePublishDrain) {
  const std::string dir = "cluster_coord_tmp";
  std::filesystem::create_directories(dir);
  InProcessCluster cluster(cluster_config(4, 42));
  cluster.add_member("a", {0, 1});
  cluster.add_member("b", {2, 3});

  CoordinatorOptions options;
  options.shards = 4;
  options.workers = 42;
  options.expected_members = 2;
  options.publish_dir = dir;
  Coordinator coordinator(options, cluster.rpc());
  EXPECT_FALSE(coordinator.ready());

  EXPECT_TRUE(cluster.join(coordinator, "a", {0, 1}, 7301, 11).boolean_or("ok", false));
  EXPECT_FALSE(coordinator.ready());
  EXPECT_TRUE(cluster.join(coordinator, "b", {2, 3}, 7302, 12).boolean_or("ok", false));
  EXPECT_TRUE(coordinator.ready());

  const WireObject status = coordinator.handle(
      command_of({{"cmd", WireValue::of("status")}}));
  EXPECT_TRUE(status.boolean_or("ok", false));
  EXPECT_TRUE(status.boolean_or("ready", false));
  EXPECT_EQ(static_cast<int>(status.number("members")), 2);
  EXPECT_EQ(static_cast<std::int64_t>(status.number("epoch")), 1);

  // Feed some state so the envelopes carry real trajectories.
  std::int64_t id = 1;
  for (int w = 0; w < 42; ++w) {
    const int shard = svc::route_worker("w" + std::to_string(w),
                                        coordinator.table().worker_offsets,
                                        coordinator.table().workers);
    const int owner = coordinator.table().owner[static_cast<std::size_t>(shard)];
    Response ignored;
    ASSERT_TRUE(cluster.rpc()(coordinator.table().members[
                                  static_cast<std::size_t>(owner)],
                              bid_for(w, id++), &ignored));
  }

  // migrate: validation, then the real hop.
  EXPECT_FALSE(coordinator
                   .handle(command_of({{"cmd", WireValue::of("migrate")},
                                       {"shard", WireValue::of(std::int64_t{9})},
                                       {"to", WireValue::of("b")}}))
                   .boolean_or("ok", false));
  EXPECT_FALSE(coordinator
                   .handle(command_of({{"cmd", WireValue::of("migrate")},
                                       {"shard", WireValue::of(std::int64_t{1})},
                                       {"to", WireValue::of("nobody")}}))
                   .boolean_or("ok", false));
  EXPECT_FALSE(coordinator
                   .handle(command_of({{"cmd", WireValue::of("migrate")},
                                       {"shard", WireValue::of(std::int64_t{1})},
                                       {"to", WireValue::of("a")}}))
                   .boolean_or("ok", false))
      << "migrating a shard onto its current owner must be rejected";

  const WireObject migrated = coordinator.handle(
      command_of({{"cmd", WireValue::of("migrate")},
                  {"shard", WireValue::of(std::int64_t{1})},
                  {"to", WireValue::of("b")}}));
  ASSERT_TRUE(migrated.boolean_or("ok", false)) << migrated.text_or("error", "");
  EXPECT_EQ(static_cast<std::int64_t>(migrated.number("epoch")), 2);
  EXPECT_GE(migrated.number("pause_ms"), 0.0);
  EXPECT_EQ(coordinator.table().owner, (std::vector<int>{0, 1, 1, 1}));

  // publish: every shard snapshotted, no epoch change, no detach.
  const WireObject published = coordinator.handle(
      command_of({{"cmd", WireValue::of("publish")}}));
  ASSERT_TRUE(published.boolean_or("ok", false));
  EXPECT_EQ(static_cast<std::int64_t>(coordinator.table().epoch), 2);
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/shard" + std::to_string(s) + "_e2_publish.mldymigr"))
        << "shard " << s;
  }

  // drain: everything moves off b, back onto a.
  const WireObject drained = coordinator.handle(
      command_of({{"cmd", WireValue::of("drain")},
                  {"member", WireValue::of("b")}}));
  ASSERT_TRUE(drained.boolean_or("ok", false)) << drained.text_or("error", "");
  EXPECT_EQ(static_cast<int>(drained.number("moved")), 3);
  EXPECT_EQ(coordinator.table().owner, (std::vector<int>{0, 0, 0, 0}));
}

// --------------------------------------------- migration bit-identity --

/// Field-level equivalence under the replay volatile mask plus the
/// cluster-only routing epoch (standalone responses have no epoch to
/// compare against). Byte equality short-circuits.
void expect_equivalent(const std::string& expected, const std::string& actual,
                       std::size_t index) {
  if (expected == actual) return;
  std::vector<std::string> mask = svc::ReplayOptions::default_mask();
  mask.push_back("epoch");
  const WireObject recorded = svc::parse_wire(expected);
  const WireObject replayed = svc::parse_wire(actual);
  const auto find_field = [](const WireObject& object,
                             std::string_view key) -> const WireValue* {
    for (const auto& [k, v] : object.entries()) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  for (const auto& [key, value] : recorded.entries()) {
    if (svc::mask_matches(mask, key)) continue;
    const WireValue* other = find_field(replayed, key);
    ASSERT_TRUE(other != nullptr)
        << "request " << index << ": field " << key << " missing\n  oracle  "
        << expected << "\n  cluster " << actual;
    EXPECT_TRUE(*other == value)
        << "request " << index << ": field " << key << " diverged\n  oracle  "
        << expected << "\n  cluster " << actual;
  }
  for (const auto& [key, value] : replayed.entries()) {
    if (svc::mask_matches(mask, key)) continue;
    EXPECT_TRUE(recorded.has(key))
        << "request " << index << ": extra field " << key << "\n  oracle  "
        << expected << "\n  cluster " << actual;
  }
}

/// The deterministic request mix: R participation rounds over the global
/// population, each closed by a broadcast stats, a query_worker probe and
/// an explicit-shard query_run.
std::vector<Request> migration_mix(int workers, int shards, int rounds) {
  std::vector<Request> mix;
  std::int64_t id = 1;
  Request hello;
  hello.op = Op::kHello;
  hello.id = id++;
  hello.proto = svc::kProtoVersion;
  mix.push_back(hello);
  for (int round = 0; round < rounds; ++round) {
    for (int w = 0; w < workers; ++w) mix.push_back(bid_for(w, id++));
    Request stats;
    stats.op = Op::kStats;
    stats.id = id++;
    mix.push_back(stats);
    Request probe;
    probe.op = Op::kQueryWorker;
    probe.id = id++;
    probe.worker = "w" + std::to_string((round * 7) % workers);
    mix.push_back(probe);
    Request run;
    run.op = Op::kQueryRun;
    run.id = id++;
    run.shard = round % shards;
    run.run = 0;
    mix.push_back(run);
  }
  return mix;
}

class MigrationBitIdentity : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::set_shared_thread_count(GetParam()); }
  void TearDown() override { util::set_shared_thread_count(1); }
};

TEST_P(MigrationBitIdentity, EightShardsTwoLiveMigrations) {
  const int kShards = 8;
  const int kWorkers = 40;
  const std::vector<Request> mix = migration_mix(kWorkers, kShards, 6);
  const std::size_t midpoint = mix.size() / 2;

  // Oracle: the same deployment, never migrated, driven identically.
  std::vector<std::string> oracle;
  {
    ShardedService service(cluster_config(kShards, kWorkers));
    for (const Request& request : mix) {
      oracle.push_back(svc::format_response(drive(service, request)));
    }
  }

  // One publish dir per thread count: ctest runs the instances in
  // parallel, and each coordinator publishes its envelopes there.
  const std::string dir =
      "cluster_bitident_tmp_t" + std::to_string(GetParam());
  std::filesystem::create_directories(dir);
  InProcessCluster cluster(cluster_config(kShards, kWorkers));
  cluster.add_member("a", {0, 1, 2, 3});
  cluster.add_member("b", {4, 5, 6, 7});
  CoordinatorOptions options;
  options.shards = kShards;
  options.workers = kWorkers;
  options.expected_members = 2;
  options.publish_dir = dir;
  Coordinator coordinator(options, cluster.rpc());
  ASSERT_TRUE(
      cluster.join(coordinator, "a", {0, 1, 2, 3}, 7301, 11).boolean_or("ok", false));
  ASSERT_TRUE(
      cluster.join(coordinator, "b", {4, 5, 6, 7}, 7302, 12).boolean_or("ok", false));
  ASSERT_TRUE(coordinator.ready());

  ClusterClient client(
      cluster.rpc(),
      [&coordinator](const WireObject& command, WireObject* reply) {
        *reply = coordinator.handle(command);
        return true;
      });
  ASSERT_TRUE(client.refresh_table()) << client.last_error();

  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (i == midpoint) {
      // Two live migrations, one in each direction; the client's table is
      // now stale and must recover through not_owner retries.
      for (const auto& [shard, to] : {std::pair<int, const char*>{3, "b"},
                                      std::pair<int, const char*>{5, "a"}}) {
        const WireObject reply = coordinator.handle(
            command_of({{"cmd", WireValue::of("migrate")},
                        {"shard", WireValue::of(static_cast<std::int64_t>(
                                      shard))},
                        {"to", WireValue::of(to)}}));
        ASSERT_TRUE(reply.boolean_or("ok", false)) << reply.text_or("error", "");
      }
    }
    Response response;
    ASSERT_TRUE(client.call(mix[i], &response)) << client.last_error();
    expect_equivalent(oracle[i], svc::format_response(response), i);
  }
  EXPECT_EQ(coordinator.table().owner,
            (std::vector<int>{0, 0, 0, 1, 1, 0, 1, 1}));
  EXPECT_EQ(coordinator.table().epoch, 3);
}

INSTANTIATE_TEST_SUITE_P(Threads, MigrationBitIdentity,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace melody::cluster
