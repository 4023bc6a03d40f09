// Sharded platform (svc/queue.h + svc/shard.h + svc/router.h): the shard
// queue's backpressure and batch pop, plan splitting and seed salting, affinity routing, broadcast merge semantics, and the headline
// contracts — a K=1 sharded deployment is byte-identical to the plain
// single-platform service, every K>1 shard is bit-identical to the
// standalone service built from its plan, and composed MLDYSVCK v2
// checkpoints kill/resume mid-trace without perturbing a single record.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "estimators/factory.h"
#include "sim/fault.h"
#include "svc/config.h"
#include "svc/frame.h"
#include "svc/protocol.h"
#include "svc/queue.h"
#include "svc/router.h"
#include "svc/service.h"
#include "svc/shard.h"
#include "util/atomic_file.h"
#include "util/binio.h"
#include "util/flags.h"
#include "util/rng.h"

namespace melody::svc {
namespace {

constexpr std::uint64_t kSeed = 2017;

using namespace std::chrono_literals;

// ---------------------------------------------------------------- queue --

/// Pop at most `max` items without waiting, then release them at once.
std::vector<int> pop_now(BoundedQueue<int>& queue, std::size_t max) {
  std::vector<int> out;
  queue.release(queue.pop_batch_for(0ns, max, out));
  return out;
}

TEST(BoundedQueue, BackpressureAndDrain) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.try_push(1), PushResult::kOk);
  EXPECT_EQ(queue.try_push(2), PushResult::kOk);
  EXPECT_EQ(queue.try_push(3), PushResult::kFull);  // full, never blocks
  EXPECT_EQ(queue.size(), 2u);

  queue.close();
  EXPECT_EQ(queue.try_push(4), PushResult::kClosed);
  // Queued items stay poppable after close (drain semantics).
  EXPECT_EQ(pop_now(queue, 1), std::vector<int>{1});
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch_for(1ms, 1, out), 1u);
  EXPECT_EQ(out, std::vector<int>{2});
  queue.release(1);
  EXPECT_EQ(queue.pop_batch_for(1ms, 1, out), 0u);
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueue, PopTimesOutOnEmpty) {
  BoundedQueue<int> queue(1);
  std::vector<int> out;
  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.pop_batch_for(5ms, 1, out), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - before, 4ms);
  EXPECT_TRUE(out.empty());
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_EQ(queue.try_push(7), PushResult::kOk);
  EXPECT_EQ(queue.try_push(8), PushResult::kFull);
}

TEST(BoundedQueue, BatchPopKeepsFifoOrderAndRespectsMax) {
  BoundedQueue<int> queue(16);
  for (int k = 0; k < 10; ++k) ASSERT_EQ(queue.try_push(k), PushResult::kOk);
  EXPECT_EQ(pop_now(queue, 4), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(queue.size(), 6u);
  EXPECT_EQ(pop_now(queue, 1), std::vector<int>{4});
  // A batch appends behind what the buffer already holds.
  std::vector<int> out{-1};
  EXPECT_EQ(queue.pop_batch_for(0ns, 100, out), 5u);
  EXPECT_EQ(out, (std::vector<int>{-1, 5, 6, 7, 8, 9}));
  queue.release(5);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.full());
}

TEST(BoundedQueue, PoppedItemsHoldTheirSlotsUntilReleased) {
  BoundedQueue<int> queue(3);
  for (int k = 0; k < 3; ++k) ASSERT_EQ(queue.try_push(k), PushResult::kOk);
  std::vector<int> batch;
  ASSERT_EQ(queue.pop_batch_for(0ns, 2, batch), 2u);
  EXPECT_EQ(queue.size(), 1u);  // only the unpopped item is pending
  // The two popped items still count against the capacity.
  EXPECT_TRUE(queue.full());
  EXPECT_EQ(queue.try_push(3), PushResult::kFull);
  queue.release(1);
  EXPECT_FALSE(queue.full());
  EXPECT_EQ(queue.try_push(3), PushResult::kOk);
  EXPECT_EQ(queue.try_push(4), PushResult::kFull);
  queue.release(1);
  EXPECT_EQ(queue.try_push(4), PushResult::kOk);
  EXPECT_EQ(pop_now(queue, 8), (std::vector<int>{2, 3, 4}));
  // Control-plane items still go past the bound.
  for (int k = 0; k < 3; ++k) ASSERT_EQ(queue.try_push(k), PushResult::kOk);
  EXPECT_EQ(queue.push_force(99), PushResult::kOk);
  EXPECT_EQ(queue.size(), 4u);
}

TEST(BoundedQueue, CloseWithPoppedItemsStillDrains) {
  BoundedQueue<int> queue(4);
  for (int k = 0; k < 4; ++k) ASSERT_EQ(queue.try_push(k), PushResult::kOk);
  std::vector<int> batch;
  ASSERT_EQ(queue.pop_batch_for(0ns, 2, batch), 2u);
  queue.close();
  EXPECT_EQ(queue.try_push(9), PushResult::kClosed);
  EXPECT_EQ(queue.push_force(9), PushResult::kClosed);
  // The consumer finishes its batch, then drains what is still queued.
  EXPECT_EQ(batch, (std::vector<int>{0, 1}));
  queue.release(2);
  EXPECT_EQ(pop_now(queue, 8), (std::vector<int>{2, 3}));
  EXPECT_EQ(queue.size(), 0u);
  // Closed and drained: a pop returns at once, without the timeout.
  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.pop_batch_for(10s, 8, batch), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - before, 5s);
}

TEST(BoundedQueue, ProducersAndABatchingConsumerAgreeOnEveryItem) {
  // Several producers race one batching consumer; every accepted item
  // arrives exactly once and each producer's items keep their order.
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 2000;
  BoundedQueue<int> queue(8);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int k = 0; k < kPerProducer;) {
        if (queue.try_push(p * kPerProducer + k) == PushResult::kOk) {
          ++k;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<int> last(kProducers, -1);
  std::vector<int> batch;
  int received = 0;
  while (received < kProducers * kPerProducer) {
    const std::size_t n = queue.pop_batch_for(10ms, 5, batch);
    ASSERT_LE(n, 5u);
    for (const int item : batch) {
      const int p = item / kPerProducer;
      EXPECT_GT(item, last[static_cast<std::size_t>(p)]);
      last[static_cast<std::size_t>(p)] = item;
    }
    received += static_cast<int>(n);
    batch.clear();
    queue.release(n);
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_FALSE(queue.full());
}


/// 42 workers / 30 tasks: neither divides by 4, so every split exercises
/// the remainder distribution.
sim::LongTermScenario shard_scenario() {
  sim::LongTermScenario s;
  s.num_workers = 42;
  s.num_tasks = 30;
  s.runs = 16;
  s.budget = 120.0;
  return s;
}

ServiceConfig shard_config(int shards) {
  ServiceConfig config;
  config.scenario = shard_scenario();
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

/// One full participation round over the GLOBAL name space: with inactive
/// batch policies every shard fires exactly one run per round (each shard's
/// min_bids defaults to its own worker count).
void append_round(std::ostream& trace, int workers, std::int64_t* next_id) {
  for (int w = 0; w < workers; ++w) {
    trace << format_request(bid_for(w, (*next_id)++)) << "\n";
  }
}

std::vector<Response> parse_lines(const std::string& text) {
  std::vector<Response> parsed;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) parsed.push_back(parse_response(line));
  }
  return parsed;
}

/// The plain single-platform reference: one AuctionService answering each
/// line directly (parse -> apply -> format), due batches fired at EOF. A
/// K=1 deployment must reproduce it byte for byte.
std::string serve_plain(AuctionService& service, std::istream& in) {
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    out += format_response(service.apply(parse_request(line)));
    out += '\n';
  }
  service.poll_batches();
  return out;
}

// ----------------------------------------------------------- plan_shards --

TEST(PlanShards, SingleShardPassesConfigThroughWithCheckpointLifted) {
  ServiceConfig config = shard_config(1);
  config.checkpoint_path = "svc.ckpt";
  config.checkpoint_every = 3;
  const std::vector<ShardPlan> plans = plan_shards(config);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].index, 0);
  EXPECT_EQ(plans[0].worker_offset, 0);
  // The sub-market IS the market: scenario and seed untouched.
  EXPECT_EQ(plans[0].config.scenario.num_workers, 42);
  EXPECT_EQ(plans[0].config.scenario.num_tasks, 30);
  EXPECT_EQ(plans[0].config.scenario.budget, 120.0);
  EXPECT_EQ(plans[0].config.seed, kSeed);
  EXPECT_EQ(plans[0].config.worker_name_offset, 0);
  // The router owns the checkpoint file; the shard must not race it.
  EXPECT_TRUE(plans[0].config.checkpoint_path.empty());
  EXPECT_EQ(plans[0].config.checkpoint_every, 0);
}

TEST(PlanShards, SplitTelescopesAndSaltsSeeds) {
  ServiceConfig config = shard_config(4);
  config.batch.min_bids = 6;
  config.batch.budget_target = 80.0;
  const std::vector<ShardPlan> plans = plan_shards(config);
  ASSERT_EQ(plans.size(), 4u);

  // 42 = 11 + 11 + 10 + 10 (first N%K shards take the extra worker).
  const int expected_workers[] = {11, 11, 10, 10};
  const int expected_offsets[] = {0, 11, 22, 32};
  const int expected_tasks[] = {8, 8, 7, 7};
  const int expected_min_bids[] = {2, 2, 1, 1};
  double budget_sum = 0.0;
  double target_sum = 0.0;
  for (int s = 0; s < 4; ++s) {
    const ShardPlan& plan = plans[static_cast<std::size_t>(s)];
    EXPECT_EQ(plan.index, s);
    EXPECT_EQ(plan.worker_offset, expected_offsets[s]);
    EXPECT_EQ(plan.config.scenario.num_workers, expected_workers[s]);
    EXPECT_EQ(plan.config.scenario.num_tasks, expected_tasks[s]);
    EXPECT_EQ(plan.config.batch.min_bids, expected_min_bids[s]);
    EXPECT_EQ(plan.config.worker_name_offset, expected_offsets[s]);
    EXPECT_EQ(plan.config.shards, 1);
    EXPECT_EQ(plan.config.seed,
              util::derive_stream(kSeed, kShardSeedSalt,
                                  static_cast<std::uint64_t>(s)));
    EXPECT_NE(plan.config.seed, kSeed);
    budget_sum += plan.config.scenario.budget;
    target_sum += plan.config.batch.budget_target;
  }
  EXPECT_DOUBLE_EQ(budget_sum, 120.0);
  EXPECT_DOUBLE_EQ(target_sum, 80.0);
  // Distinct shards, distinct streams.
  EXPECT_NE(plans[0].config.seed, plans[1].config.seed);
}

TEST(PlanShards, RejectsShardCountsTheMarketCannotCarry) {
  ServiceConfig config = shard_config(5);
  config.scenario.num_workers = 4;  // 5 shards, 4 workers: empty sub-market
  EXPECT_THROW(plan_shards(config), std::invalid_argument);
  config = shard_config(4);
  config.scenario.num_tasks = 3;  // 4 shards, 3 tasks
  EXPECT_THROW(plan_shards(config), std::invalid_argument);
  config = shard_config(0);
  EXPECT_THROW(plan_shards(config), std::invalid_argument);
}

// --------------------------------------------------------------- routing --

TEST(ShardRouting, ScenarioNamesMapToRangeOwnersForeignNamesHashStably) {
  ShardedService service(shard_config(4));
  // Contiguous ranges: [0,11) [11,22) [22,32) [32,42).
  EXPECT_EQ(service.route("w0"), 0);
  EXPECT_EQ(service.route("w10"), 0);
  EXPECT_EQ(service.route("w11"), 1);
  EXPECT_EQ(service.route("w21"), 1);
  EXPECT_EQ(service.route("w22"), 2);
  EXPECT_EQ(service.route("w32"), 3);
  EXPECT_EQ(service.route("w41"), 3);
  // Outside the initial population (newcomers, foreign names): hash
  // affinity — any shard, but always the same one for the same name.
  for (const std::string name : {"w42", "w1000000", "alice", "lg3_17", "w"}) {
    const int owner = service.route(name);
    EXPECT_GE(owner, 0) << name;
    EXPECT_LT(owner, 4) << name;
    EXPECT_EQ(service.route(name), owner) << name;
  }
}

TEST(ShardRouting, QueryRunAddressesShardsExplicitly) {
  ShardedService service(shard_config(4));
  // One full round submitted directly (the stdio driver's EOF path would
  // close the queues): one run fires on every shard.
  int delivered_bids = 0;
  for (int w = 0; w < 42; ++w) {
    ASSERT_EQ(service.submit(bid_for(w, w + 1),
                             [&](const Response&) { ++delivered_bids; }),
              PushResult::kOk);
    while (service.poll_once(std::chrono::nanoseconds{0})) {
    }
  }
  ASSERT_EQ(delivered_bids, 42);

  Request query;
  query.op = Op::kQueryRun;
  query.id = 900;
  query.run = 1;
  query.shard = 2;
  Response answer;
  bool delivered = false;
  ASSERT_EQ(service.submit(query,
                           [&](const Response& r) {
                             answer = r;
                             delivered = true;
                           }),
            PushResult::kOk);
  while (!delivered) service.poll_once(std::chrono::nanoseconds{0});
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(answer.fields.number("run"), 1.0);

  // Out of range: answered inline, no shard touched.
  query.shard = 7;
  delivered = false;
  ASSERT_EQ(service.submit(query,
                           [&](const Response& r) {
                             answer = r;
                             delivered = true;
                           }),
            PushResult::kOk);
  ASSERT_TRUE(delivered);
  EXPECT_FALSE(answer.ok);
  EXPECT_NE(answer.error.find("shard"), std::string::npos);
}

// ---------------------------------------------- K=1 bit-identity contract --

TEST(ShardedStdio, SingleShardByteIdenticalToPlainServiceLoop) {
  std::stringstream trace;
  std::int64_t next_id = 1;
  Request hello;
  hello.op = Op::kHello;
  hello.id = next_id++;
  trace << format_request(hello) << "\n";
  for (int round = 0; round < 6; ++round) append_round(trace, 42, &next_id);
  Request stats;
  stats.op = Op::kStats;
  stats.id = next_id++;
  trace << format_request(stats) << "\n";
  const std::string input = trace.str();

  std::string plain_out;
  {
    AuctionService service(shard_config(1));
    std::istringstream in(input);
    plain_out = serve_plain(service, in);
  }
  std::ostringstream sharded_out;
  ShardedService service(shard_config(1));
  {
    std::istringstream in(input);
    run_stdio_session(service, in, sharded_out);
  }
  // Byte identity, not just record identity: every response line — hello
  // (shards advertised in the same position), bids, merged stats — matches
  // the unsharded service exactly.
  EXPECT_EQ(sharded_out.str(), plain_out);
  EXPECT_EQ(service.shard(0).service().records().size(), 6u);
}

// ------------------------------------- K>1 per-shard standalone identity --

TEST(ShardedStdio, FourShardTrajectoriesMatchStandalonePlans) {
  const ServiceConfig config = shard_config(4);
  ShardedService service(config);
  std::stringstream trace;
  std::int64_t next_id = 1;
  for (int round = 0; round < 16; ++round) append_round(trace, 42, &next_id);
  std::ostringstream out;
  const FrameTally result = run_stdio_session(service, trace, out);
  EXPECT_EQ(result.parse_errors, 0u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(service.total_runs(), 64u);  // 16 rounds x 4 shards

  // Every shard reproduces the standalone single-platform service built
  // from the same plan, bid for bid, record for record.
  const std::vector<ShardPlan> plans = plan_shards(config);
  std::vector<std::vector<sim::RunRecord>> per_shard;
  for (int s = 0; s < 4; ++s) {
    const ShardPlan& plan = plans[static_cast<std::size_t>(s)];
    AuctionService standalone(plan.config);
    std::stringstream shard_trace;
    std::int64_t id = 1;
    for (int round = 0; round < 16; ++round) {
      for (int w = 0; w < plan.config.scenario.num_workers; ++w) {
        shard_trace << format_request(bid_for(plan.worker_offset + w, id++))
                    << "\n";
      }
    }
    serve_plain(standalone, shard_trace);
    const auto& expected = standalone.records();
    const auto& actual = service.shard(s).service().records();
    ASSERT_EQ(actual.size(), expected.size()) << "shard " << s;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(actual[k], expected[k]) << "shard " << s << " run " << k + 1;
    }
    per_shard.push_back(expected);
  }

  // Cross-shard aggregation is merge_run_records over exactly those
  // per-shard trajectories.
  const std::vector<sim::RunRecord> aggregated = service.aggregated_records();
  const std::vector<sim::RunRecord> expected_merge =
      sim::merge_run_records(per_shard);
  ASSERT_EQ(aggregated.size(), expected_merge.size());
  ASSERT_EQ(aggregated.size(), 16u);
  for (std::size_t k = 0; k < aggregated.size(); ++k) {
    EXPECT_EQ(aggregated[k], expected_merge[k]) << "merged run " << k + 1;
  }
}

// ------------------------------------------------ composed checkpointing --

TEST(ShardedCheckpoint, ComposedKillResumeMidTraceStaysBitIdentical) {
  const ServiceConfig config = shard_config(4);
  const int interrupt_after = 8;
  const std::string path = ::testing::TempDir() + "/melody_shard_v2.ckpt";

  // Uninterrupted reference.
  std::vector<std::vector<sim::RunRecord>> expected;
  {
    ShardedService reference(config);
    std::stringstream trace;
    std::int64_t next_id = 1;
    for (int round = 0; round < 16; ++round) append_round(trace, 42, &next_id);
    std::ostringstream out;
    run_stdio_session(reference, trace, out);
    for (int s = 0; s < 4; ++s) {
      expected.push_back(reference.shard(s).service().records());
    }
  }

  std::vector<std::vector<sim::RunRecord>> prefix;
  {
    ShardedService service(config);
    std::stringstream trace;
    std::int64_t next_id = 1;
    for (int round = 0; round < interrupt_after; ++round) {
      append_round(trace, 42, &next_id);
    }
    Request checkpoint;
    checkpoint.op = Op::kCheckpoint;
    checkpoint.id = next_id++;
    checkpoint.path = path;
    trace << format_request(checkpoint) << "\n";
    std::ostringstream out;
    run_stdio_session(service, trace, out);
    const std::vector<Response> responses = parse_lines(out.str());
    ASSERT_FALSE(responses.empty());
    const Response& answer = responses.back();
    ASSERT_TRUE(answer.ok) << answer.error;
    EXPECT_EQ(answer.fields.text_or("path", ""), path);
    EXPECT_EQ(answer.fields.number("run"),
              static_cast<double>(interrupt_after));
    EXPECT_EQ(answer.fields.number("shards"), 4.0);
    for (int s = 0; s < 4; ++s) {
      prefix.push_back(service.shard(s).service().records());
      ASSERT_EQ(static_cast<int>(prefix.back().size()), interrupt_after);
    }
  }  // the "killed" deployment is gone; only the v2 file survives

  ShardedService service(config);
  service.restore(path);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(service.shard(s).service().platform().current_run(),
              interrupt_after + 1)
        << "shard " << s;
  }
  std::stringstream trace;
  std::int64_t next_id = 100000;
  for (int round = interrupt_after; round < 16; ++round) {
    append_round(trace, 42, &next_id);
  }
  std::ostringstream out;
  run_stdio_session(service, trace, out);

  for (int s = 0; s < 4; ++s) {
    std::vector<sim::RunRecord> all = prefix[static_cast<std::size_t>(s)];
    const auto& tail = service.shard(s).service().records();
    all.insert(all.end(), tail.begin(), tail.end());
    ASSERT_EQ(all.size(), expected[static_cast<std::size_t>(s)].size());
    for (std::size_t k = 0; k < all.size(); ++k) {
      EXPECT_EQ(all[k], expected[static_cast<std::size_t>(s)][k])
          << "shard " << s << " run " << k + 1;
    }
  }
  std::remove(path.c_str());
}

TEST(ShardedCheckpoint, RestoreRejectsAPlainShardBodyNamingItsVersion) {
  // Checkpoint files are composed containers only: the plain body of one
  // service (MLDYSVCK at the service version) is refused, even by a K=1
  // deployment, and the error names the format and the version found.
  const ServiceConfig config = shard_config(1);
  const std::string path = ::testing::TempDir() + "/melody_shard_plain.ckpt";
  {
    AuctionService service(config);
    std::ofstream out(path, std::ios::binary);
    service.save_state(out);
  }
  ShardedService service(config);
  try {
    service.restore(path);
    FAIL() << "a plain service body must not restore";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MLDYSVCK"), std::string::npos) << what;
    EXPECT_NE(what.find("version " + std::to_string(kServiceCheckpointVersion)),
              std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

TEST(ShardedCheckpoint, TruncatedContainerLeavesEveryShardUntouched) {
  const ServiceConfig config = shard_config(2);
  ShardedService source(config);
  // Seven pending bids per shard: w0..w18 live on shard 0, w21..w39 on 1.
  for (int w = 0; w < 42; w += 3) {
    ASSERT_EQ(source.submit(bid_for(w, w + 1), [](const Response&) {}),
              PushResult::kOk);
  }
  while (source.poll_once(std::chrono::nanoseconds{0})) {
  }
  util::binio::Writer composed;
  source.save_state(composed);
  const std::string bytes = composed.take();
  util::binio::Writer shard0;
  source.shard(0).service().save_state(shard0);
  // Magic, version and shard count, then shard 0's length prefix and body.
  const std::size_t shard0_end = 8 + 4 + 4 + 8 + shard0.bytes().size();

  ShardedService victim(config);
  const auto shard_bytes = [&victim] {
    std::vector<std::string> out;
    for (int s = 0; s < victim.shard_count(); ++s) {
      util::binio::Writer body;
      victim.shard(s).service().save_state(body);
      out.push_back(body.take());
    }
    return out;
  };
  const std::vector<std::string> before = shard_bytes();
  // Inside shard 0's body, right after it, inside shard 1's length
  // prefix, and three bytes short of the end.
  for (const std::size_t length :
       {shard0_end - 5, shard0_end, shard0_end + 4, bytes.size() - 3}) {
    util::binio::Reader in(std::string_view(bytes).substr(0, length));
    EXPECT_THROW(victim.load_state(in), std::runtime_error) << length;
    EXPECT_EQ(shard_bytes(), before) << "cut at " << length;
  }
  util::binio::Reader whole(bytes);
  victim.load_state(whole);
  EXPECT_EQ(victim.shard(0).service().batcher().pending_bids(), 7);
  EXPECT_EQ(victim.shard(1).service().batcher().pending_bids(), 7);
}

/// Two full rounds (one run per shard each), two newcomers and a partial
/// round of pending bids, so every section of every shard body has content.
void append_history_with_newcomers(std::ostream& trace, int workers,
                                   std::int64_t* next_id) {
  for (int round = 0; round < 2; ++round) {
    append_round(trace, workers, next_id);
  }
  for (const char* name : {"alice", "bob"}) {
    Request join;
    join.op = Op::kSubmitBid;
    join.id = (*next_id)++;
    join.worker = name;
    join.cost = 2.5;
    join.frequency = 3;
    join.has_bid = true;
    trace << format_request(join) << "\n";
  }
  for (int w = 0; w < workers; w += 5) {
    trace << format_request(bid_for(w, (*next_id)++)) << "\n";
  }
}

std::string composed_bytes(const ShardedService& service) {
  util::binio::Writer out;
  service.save_state(out);
  return out.take();
}

/// The length of each shard body framed in a composed checkpoint.
std::vector<std::size_t> framed_body_sizes(std::string_view composed) {
  util::binio::Reader in(composed);
  in.read_header("MLDYSVCK", kComposedCheckpointVersion);
  std::vector<std::size_t> sizes(in.read_u32("shards"));
  for (std::size_t& size : sizes) size = in.read_bytes("body").size();
  return sizes;
}

/// The body length each shard of `service` remembers.
std::vector<std::size_t> remembered_sizes(const ShardedService& service) {
  std::vector<std::size_t> sizes;
  for (int s = 0; s < service.shard_count(); ++s) {
    sizes.push_back(service.shard(s).service().last_body_size());
  }
  return sizes;
}

Request checkpoint_to(const std::string& path, std::int64_t id) {
  Request checkpoint;
  checkpoint.op = Op::kCheckpoint;
  checkpoint.id = id;
  checkpoint.path = path;
  return checkpoint;
}

/// Each shard of `file` remembers the exact body length it loaded from it.
void expect_restore_remembers_body_sizes(const ServiceConfig& config,
                                         const std::string& file) {
  ShardedService restored(config);
  EXPECT_EQ(remembered_sizes(restored),
            std::vector<std::size_t>(static_cast<std::size_t>(config.shards),
                                     0));
  restored.restore(file);
  EXPECT_EQ(remembered_sizes(restored),
            framed_body_sizes(util::MappedFile(file, "checkpoint").bytes()));
}

TEST(ShardedCheckpoint, CheckpointOpFileEqualsSaveStateAtOneTwoThreeShards) {
  // The op writes the header and the K bodies in one gathered write, with
  // no composed copy; the file is still exactly the container save_state
  // builds in memory. The second checkpoint builds each body into a buffer
  // reserved from the length the first one left behind.
  for (const int k : {1, 2, 3}) {
    const std::string path = ::testing::TempDir() + "/melody_gather_" +
                             std::to_string(k) + ".ckpt";
    ShardedService service(shard_config(k));
    std::stringstream trace;
    std::int64_t next_id = 1;
    append_history_with_newcomers(trace, 42, &next_id);
    trace << format_request(checkpoint_to(path, next_id++)) << "\n";
    append_round(trace, 42, &next_id);
    trace << format_request(checkpoint_to(path, next_id++)) << "\n";
    std::ostringstream out;
    run_stdio_session(service, trace, out);
    const std::vector<Response> responses = parse_lines(out.str());
    ASSERT_FALSE(responses.empty());
    ASSERT_TRUE(responses.back().ok) << responses.back().error;
    {
      const util::MappedFile file(path, "checkpoint");
      EXPECT_EQ(remembered_sizes(service), framed_body_sizes(file.bytes()))
          << "K=" << k;
      EXPECT_EQ(file.bytes(), composed_bytes(service)) << "K=" << k;
    }
    EXPECT_FALSE(std::ifstream(path + ".tmp").good());
    expect_restore_remembers_body_sizes(shard_config(k), path);
    std::remove(path.c_str());
  }
}

TEST(ShardedCheckpoint, ShutdownFileEqualsSaveStateAtOneTwoThreeShards) {
  // A checkpoint op mid-trace leaves each shard a remembered length, so the
  // shutdown file is built into reserved buffers.
  for (const int k : {1, 2, 3}) {
    ServiceConfig config = shard_config(k);
    config.checkpoint_path = ::testing::TempDir() + "/melody_final_" +
                             std::to_string(k) + ".ckpt";
    ShardedService service(config);
    std::stringstream trace;
    std::int64_t next_id = 1;
    append_history_with_newcomers(trace, 42, &next_id);
    trace << format_request(checkpoint_to(config.checkpoint_path, next_id++))
          << "\n";
    append_round(trace, 42, &next_id);
    std::ostringstream out;
    run_stdio_session(service, trace, out);
    service.finalize();
    {
      const util::MappedFile file(config.checkpoint_path, "checkpoint");
      EXPECT_EQ(remembered_sizes(service), framed_body_sizes(file.bytes()))
          << "K=" << k;
      EXPECT_EQ(file.bytes(), composed_bytes(service)) << "K=" << k;
    }
    expect_restore_remembers_body_sizes(config, config.checkpoint_path);
    std::remove(config.checkpoint_path.c_str());
  }
}

TEST(ShardedCheckpoint, ExportEnvelopeEqualsSaveMigrationAtOneTwoThreeShards) {
  // Each shard is exported twice: the second envelope is built into a
  // buffer reserved from the length the first one left behind.
  for (const int k : {1, 2, 3}) {
    ShardedService service(shard_config(k));
    service.configure_cluster((1ull << k) - 1, 1);
    std::stringstream trace;
    std::int64_t next_id = 1;
    append_history_with_newcomers(trace, 42, &next_id);
    const auto envelope = [k](int s) {
      return ::testing::TempDir() + "/melody_export_" + std::to_string(k) +
             "_" + std::to_string(s) + ".mldymigr";
    };
    for (int pass = 0; pass < 2; ++pass) {
      for (int s = 0; s < k; ++s) {
        Request export_req;
        export_req.op = Op::kShardExport;
        export_req.id = next_id++;
        export_req.shard = s;
        export_req.path = envelope(s);
        trace << format_request(export_req) << "\n";
      }
    }
    std::ostringstream out;
    run_stdio_session(service, trace, out);
    const std::vector<Response> responses = parse_lines(out.str());
    ASSERT_FALSE(responses.empty());
    ASSERT_TRUE(responses.back().ok) << responses.back().error;
    for (int s = 0; s < k; ++s) {
      const AuctionService& shard = service.shard(s).service();
      {
        const util::MappedFile file(envelope(s), "cluster envelope");
        util::binio::Reader in(file.bytes());
        in.read_header("MLDYMIGR", kMigrationVersion);
        EXPECT_EQ(shard.last_body_size(), in.read_bytes("body").size())
            << "K=" << k << " shard " << s;
        util::binio::Writer saved;
        shard.save_migration(saved);
        EXPECT_EQ(file.bytes(), saved.bytes()) << "K=" << k << " shard " << s;
      }
      std::remove(envelope(s).c_str());
    }
  }
}

TEST(ServiceBody, RemembersTheLengthItSavedOrLoaded) {
  AuctionService source(shard_config(1));
  std::stringstream trace;
  std::int64_t next_id = 1;
  append_history_with_newcomers(trace, 42, &next_id);
  serve_plain(source, trace);
  EXPECT_EQ(source.last_body_size(), 0u);
  util::binio::Writer out;
  out.write_raw("prefix");  // a body saved behind other bytes
  source.save_state(out);
  const std::size_t body_size = out.bytes().size() - 6;
  EXPECT_EQ(source.last_body_size(), body_size);

  AuctionService loaded(shard_config(1));
  util::binio::Reader in(std::string_view(out.bytes()).substr(6));
  loaded.load_state(in);
  EXPECT_EQ(loaded.last_body_size(), body_size);

  // A refused load leaves the remembered length as it was.
  util::binio::Reader cut(
      std::string_view(out.bytes()).substr(6, body_size - 3));
  EXPECT_THROW(loaded.load_state(cut), std::runtime_error);
  EXPECT_EQ(loaded.last_body_size(), body_size);
}

// ------------------------------------------------------- broadcast merge --

// There is one protocol version: whatever "proto" a hello carries (or none),
// the reply bytes are the same.
TEST(ShardedBroadcast, HelloIgnoresProtoAndStatsSumAcrossShards) {
  ShardedService service(shard_config(4));
  std::stringstream trace;
  const int kProtos[] = {0, 1, 2, kProtoVersion, 99};  // 0: field absent
  for (const int proto : kProtos) {
    Request hello;
    hello.op = Op::kHello;
    hello.id = 1;
    hello.proto = proto;
    trace << format_request(hello) << "\n";
  }
  std::int64_t next_id = 2;
  for (int round = 0; round < 3; ++round) append_round(trace, 42, &next_id);
  Request tasks;
  tasks.op = Op::kSubmitTasks;
  tasks.id = next_id++;
  tasks.task_count = 101;
  tasks.budget = 60.0;
  trace << format_request(tasks) << "\n";
  Request stats;
  stats.op = Op::kStats;
  stats.id = next_id++;
  trace << format_request(stats) << "\n";
  std::ostringstream out;
  run_stdio_session(service, trace, out);
  std::istringstream reply_lines(out.str());
  std::string first_hello;
  std::getline(reply_lines, first_hello);
  for (std::size_t k = 1; k < std::size(kProtos); ++k) {
    std::string hello_line;
    std::getline(reply_lines, hello_line);
    EXPECT_EQ(hello_line, first_hello) << "proto " << kProtos[k];
  }
  const std::vector<Response> responses = parse_lines(out.str());
  ASSERT_GE(responses.size(), std::size(kProtos) + 1);

  const Response& hello_reply = responses.front();
  ASSERT_TRUE(hello_reply.ok) << hello_reply.error;
  EXPECT_EQ(hello_reply.fields.number("proto_version"),
            static_cast<double>(kProtoVersion));
  EXPECT_EQ(hello_reply.fields.number("shards"), 4.0);
  EXPECT_EQ(hello_reply.fields.number("workers"), 42.0);  // summed

  const Response& stats_reply = responses.back();
  ASSERT_TRUE(stats_reply.ok) << stats_reply.error;
  EXPECT_EQ(stats_reply.fields.number("workers"), 42.0);
  EXPECT_EQ(stats_reply.fields.number("runs_this_session"), 12.0);  // 3 x 4
  EXPECT_EQ(stats_reply.fields.number("runs_total"), 12.0);
  EXPECT_EQ(stats_reply.fields.number("next_run"), 4.0);  // max, not sum
  EXPECT_FALSE(stats_reply.fields.boolean_or("finished", true));
  // The split submit_tasks budget telescopes back to the global amount.
  const Response& tasks_reply = responses[responses.size() - 2];
  ASSERT_TRUE(tasks_reply.ok) << tasks_reply.error;
  EXPECT_NEAR(tasks_reply.fields.number("accrued_budget"), 60.0, 1e-9);
}

TEST(ShardedBroadcast, AdmissionIsAllOrNothing) {
  ServiceConfig config = shard_config(2);
  config.queue_capacity = 1;
  ShardedService service(config);

  // Fill shard 0's queue (route("w0") == 0) without polling.
  bool bid_done = false;
  ASSERT_EQ(service.submit(bid_for(0, 1),
                           [&](const Response&) { bid_done = true; }),
            PushResult::kOk);
  Request stats;
  stats.op = Op::kStats;
  stats.id = 2;
  bool stats_done = false;
  // One shard full: the broadcast lands on NO shard (no torn fan-out).
  EXPECT_EQ(service.submit(stats,
                           [&](const Response&) { stats_done = true; }),
            PushResult::kFull);
  EXPECT_FALSE(stats_done);
  while (service.poll_once(std::chrono::nanoseconds{0})) {
  }
  EXPECT_TRUE(bid_done);
  // With the queues drained the same broadcast is admitted everywhere.
  EXPECT_EQ(service.submit(stats,
                           [&](const Response&) { stats_done = true; }),
            PushResult::kOk);
  while (!stats_done) service.poll_once(std::chrono::nanoseconds{0});
  EXPECT_TRUE(stats_done);
}

TEST(ShardedStdio, UnsupportedOpAnswersStructurallyAndKeepsTheSession) {
  ShardedService service(shard_config(4));
  std::stringstream trace;
  trace << R"({"op":"frobnicate","id":5})" << "\n";
  Request stats;
  stats.op = Op::kStats;
  stats.id = 6;
  trace << format_request(stats) << "\n";
  std::ostringstream out;
  const FrameTally result = run_stdio_session(service, trace, out);
  EXPECT_EQ(result.parse_errors, 1u);
  EXPECT_EQ(result.requests, 1u);
  const std::vector<Response> responses = parse_lines(out.str());
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].error, "unsupported_op");
  EXPECT_EQ(responses[0].id, 5);
  EXPECT_EQ(responses[0].fields.text_or("op", ""), "frobnicate");
  EXPECT_EQ(responses[0].fields.number("proto_version"),
            static_cast<double>(kProtoVersion));
  EXPECT_TRUE(responses[1].ok) << responses[1].error;  // session survived
}

// -------------------------------------------- config + estimator factory --

TEST(ServiceConfigFlags, ParsesTheSharedFlagSet) {
  const char* argv[] = {"melody_serve",    "--workers",        "50",
                        "--tasks",         "40",               "--shards",
                        "4",               "--queue-capacity", "9",
                        "--estimator",     "static",           "--seed",
                        "77",              "--batch-min-bids", "12",
                        "--manual-clock"};
  const util::Flags flags(static_cast<int>(std::size(argv)), argv);
  const ServiceConfig config = ServiceConfig::from_flags(flags);
  EXPECT_EQ(config.scenario.num_workers, 50);
  EXPECT_EQ(config.scenario.num_tasks, 40);
  EXPECT_EQ(config.shards, 4);
  EXPECT_EQ(config.queue_capacity, 9);
  EXPECT_EQ(config.estimator, "static");
  EXPECT_EQ(config.seed, 77u);
  EXPECT_TRUE(config.manual_clock);
  EXPECT_EQ(config.batch.min_bids, 12);
  EXPECT_NO_THROW(config.validate());
}

TEST(ServiceConfigFlags, IntFieldsRefuseValuesOutsideInt) {
  // Narrowed unchecked, these would serve 300 workers and 2 shards.
  for (const char* flag : {"--workers=4294967596", "--shards=4294967298",
                           "--tasks=2147483648", "--runs=-2147483649"}) {
    const char* argv[] = {"melody_serve", flag};
    const util::Flags flags(static_cast<int>(std::size(argv)), argv);
    EXPECT_THROW(ServiceConfig::from_flags(flags), std::invalid_argument)
        << flag;
  }
  const char* argv[] = {"melody_serve", "--workers=2147483647"};
  const util::Flags flags(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(ServiceConfig::from_flags(flags).scenario.num_workers,
            std::numeric_limits<int>::max());
}

TEST(ServiceConfigFlags, ToFlagsIsTheExactInverseOfFromFlags) {
  ServiceConfig c;
  c.scenario.num_workers = 77;
  c.scenario.num_tasks = 55;
  c.scenario.runs = 123;
  c.scenario.budget = 800.1234567;  // "%g" would write 800.123
  c.scenario.reestimation_period = 3;
  c.estimator = "ml-cr";
  c.exploration_beta = 0.1 + 0.2;
  c.payment_rule = auction::PaymentRule::kPaperNextInQueue;
  c.seed = ~std::uint64_t{0} - 4;  // --seed parses it as -5
  c.faults = sim::FaultPlan::parse(
      "no-show=0.05,drop=0.1,corrupt=0.01,churn=0.02,churn-min=2,"
      "churn-max=4,salt=-9");
  c.checkpoint_path = "state dir/svc=1.ckpt";
  c.checkpoint_every = 5;
  c.batch.min_bids = 12;
  c.batch.max_delay = 1.0 / 3.0;
  c.batch.budget_target = 2.5e-7;
  c.batch.per_task_arrival = true;
  c.manual_clock = true;
  c.exit_after_runs = 9;
  c.shards = 4;
  c.queue_capacity = std::int64_t{1} << 40;
  ASSERT_NO_THROW(c.validate());

  // Every flag-settable field is off its default, so a field added to the
  // list without a line above fails here.
  const std::vector<std::string> written = c.to_flags();
  const std::vector<std::string> defaults = ServiceConfig{}.to_flags();
  ASSERT_EQ(written.size(), defaults.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_NE(written[i], defaults[i]) << "left at its default: " << written[i];
  }

  std::vector<const char*> argv{"melody_serve"};
  for (const std::string& flag : written) argv.push_back(flag.c_str());
  const util::Flags flags(static_cast<int>(argv.size()), argv.data());
  const ServiceConfig back = ServiceConfig::from_flags(flags);
  EXPECT_TRUE(flags.unused().empty());
  EXPECT_EQ(back.scenario.num_workers, c.scenario.num_workers);
  EXPECT_EQ(back.scenario.num_tasks, c.scenario.num_tasks);
  EXPECT_EQ(back.scenario.runs, c.scenario.runs);
  EXPECT_EQ(back.scenario.budget, c.scenario.budget);
  EXPECT_EQ(back.scenario.reestimation_period,
            c.scenario.reestimation_period);
  EXPECT_EQ(back.estimator, c.estimator);
  EXPECT_EQ(back.exploration_beta, c.exploration_beta);
  EXPECT_EQ(back.payment_rule, c.payment_rule);
  EXPECT_EQ(back.seed, c.seed);
  EXPECT_EQ(back.faults, c.faults);
  EXPECT_EQ(back.checkpoint_path, c.checkpoint_path);
  EXPECT_EQ(back.checkpoint_every, c.checkpoint_every);
  EXPECT_EQ(back.batch.min_bids, c.batch.min_bids);
  EXPECT_EQ(back.batch.max_delay, c.batch.max_delay);
  EXPECT_EQ(back.batch.budget_target, c.batch.budget_target);
  EXPECT_EQ(back.batch.per_task_arrival, c.batch.per_task_arrival);
  EXPECT_EQ(back.manual_clock, c.manual_clock);
  EXPECT_EQ(back.exit_after_runs, c.exit_after_runs);
  EXPECT_EQ(back.shards, c.shards);
  EXPECT_EQ(back.queue_capacity, c.queue_capacity);
  EXPECT_EQ(back.to_flags(), written);  // a fixed point
}

TEST(ServiceConfigFlags, ValidateRejectsUnusableShardCounts) {
  ServiceConfig config = shard_config(4);
  config.scenario.num_workers = 3;  // fewer workers than shards
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = shard_config(1);
  config.estimator = "nonsense";
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ServiceConfigFlags, ValidateRejectsNonFiniteBudgets) {
  for (const double budget : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(), -1.0}) {
    ServiceConfig config = shard_config(1);
    config.scenario.budget = budget;
    EXPECT_THROW(config.validate(), std::invalid_argument) << budget;
  }
  for (const char* budget : {"nan", "inf"}) {
    const char* argv[] = {"melody_serve", "--budget", budget};
    const util::Flags flags(static_cast<int>(std::size(argv)), argv);
    EXPECT_THROW(ServiceConfig::from_flags(flags).validate(),
                 std::invalid_argument)
        << budget;
  }
}

TEST(EstimatorFactory, KnownKindsConstructUnknownIsNull) {
  for (const std::string kind : {"melody", "static", "ml-cr", "ml-ar",
                                 "MELODY", "STATIC", "ML-CR", "ML-AR"}) {
    EXPECT_NE(estimators::make(kind, {}), nullptr) << kind;
  }
  EXPECT_EQ(estimators::make("nonsense", {}), nullptr);
  EXPECT_NE(estimators::known_kinds().find("melody"), std::string::npos);
}

}  // namespace
}  // namespace melody::svc
