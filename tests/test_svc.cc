// Service runtime (melody::svc): batch triggers, session registry
// persistence, wire/protocol codec round-trips, and the headline contract — a stdin-mode service session driven by a request
// trace produces bit-identical run outcomes to the equivalent melody_sim
// batch run, including across a mid-trace checkpoint/kill/resume.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/factory.h"
#include "sim/platform.h"
#include "svc/batcher.h"
#include "svc/frame.h"
#include "svc/protocol.h"
#include "svc/router.h"
#include "svc/service.h"
#include "svc/session.h"
#include "svc/shard.h"
#include "svc/wire.h"
#include "util/binio.h"
#include "util/rng.h"
#include "wire_corpus.h"

namespace melody::svc {
namespace {

using namespace std::chrono_literals;

// -------------------------------------------------------------- batcher --

TEST(RunBatcher, CountTrigger) {
  RunBatcher batcher({.min_bids = 3});
  batcher.note_bid(0.0);
  batcher.note_bid(0.1);
  EXPECT_FALSE(batcher.should_fire(0.1));
  batcher.note_bid(0.2);
  EXPECT_TRUE(batcher.should_fire(0.2));
  batcher.consume(0.2);
  EXPECT_EQ(batcher.pending_bids(), 0);
  EXPECT_FALSE(batcher.should_fire(10.0));  // nothing pending
}

TEST(RunBatcher, DeadlineTrigger) {
  RunBatcher batcher({.max_delay = 5.0});
  EXPECT_LT(batcher.seconds_until_deadline(0.0), 0.0);  // nothing pending
  batcher.note_bid(1.0);
  EXPECT_FALSE(batcher.should_fire(5.9));
  EXPECT_DOUBLE_EQ(batcher.seconds_until_deadline(2.0), 4.0);
  EXPECT_TRUE(batcher.should_fire(6.0));
  // The deadline tracks the OLDEST pending bid: later bids don't extend it.
  batcher.consume(6.0);
  batcher.note_bid(10.0);
  batcher.note_bid(14.0);
  EXPECT_FALSE(batcher.should_fire(14.9));
  EXPECT_TRUE(batcher.should_fire(15.0));
}

TEST(RunBatcher, BudgetTriggerCarriesOvershoot) {
  RunBatcher batcher({.budget_target = 100.0});
  batcher.note_budget(60.0);
  EXPECT_FALSE(batcher.should_fire(0.0));
  batcher.note_budget(90.0);  // 150 accrued
  EXPECT_TRUE(batcher.should_fire(0.0));
  batcher.consume(0.0);
  // Overshoot carries: 50 remains, one more 60 re-arms the trigger.
  EXPECT_DOUBLE_EQ(batcher.accrued_budget(), 50.0);
  batcher.note_budget(60.0);
  EXPECT_TRUE(batcher.should_fire(0.0));
  batcher.consume(0.0);
  EXPECT_DOUBLE_EQ(batcher.accrued_budget(), 10.0);
  EXPECT_FALSE(batcher.should_fire(0.0));
}

TEST(RunBatcher, InactivePolicyNeverFires) {
  RunBatcher batcher({});
  batcher.note_bid(0.0);
  batcher.note_budget(1e9);
  EXPECT_FALSE(batcher.should_fire(1e9));
}

TEST(RunBatcher, PerTaskArrivalTriggerQueuesOneRunPerArrival) {
  RunBatcher batcher({.per_task_arrival = true});
  EXPECT_FALSE(batcher.should_fire(0.0));
  batcher.note_task_arrival();
  batcher.note_task_arrival();
  EXPECT_EQ(batcher.pending_arrivals(), 2);
  // Two arrivals between polls schedule two back-to-back runs.
  EXPECT_TRUE(batcher.should_fire(0.0));
  batcher.consume(0.0);
  EXPECT_EQ(batcher.pending_arrivals(), 1);
  EXPECT_TRUE(batcher.should_fire(0.0));
  batcher.consume(0.0);
  EXPECT_FALSE(batcher.should_fire(0.0));
}

TEST(RunBatcher, ArrivalsAreInertWithoutTheRollingPolicy) {
  RunBatcher batcher({.min_bids = 3});
  batcher.note_task_arrival();
  EXPECT_EQ(batcher.pending_arrivals(), 0);
  EXPECT_FALSE(batcher.should_fire(0.0));
}

TEST(RunBatcher, RestoreCarriesPendingArrivals) {
  RunBatcher a({.per_task_arrival = true});
  a.note_task_arrival();
  a.note_task_arrival();
  RunBatcher b(a.policy());
  b.restore(a.pending_bids(), a.oldest_bid_time(), a.accrued_budget(),
            a.pending_arrivals());
  EXPECT_EQ(b.pending_arrivals(), 2);
  EXPECT_TRUE(b.should_fire(0.0));
}

TEST(RunBatcher, RestoreReproducesAccumulationState) {
  RunBatcher a({.min_bids = 5, .max_delay = 3.0, .budget_target = 40.0});
  a.note_bid(1.5);
  a.note_bid(2.0);
  a.note_budget(17.0);
  RunBatcher b(a.policy());
  b.restore(a.pending_bids(), a.oldest_bid_time(), a.accrued_budget());
  for (const double t : {1.5, 4.4, 4.5, 9.0}) {
    EXPECT_EQ(a.should_fire(t), b.should_fire(t)) << "t=" << t;
    EXPECT_DOUBLE_EQ(a.seconds_until_deadline(t), b.seconds_until_deadline(t));
  }
}

// ------------------------------------------------------------- registry --

TEST(SessionRegistry, InternAssignsDenseIdsInOrder) {
  SessionRegistry registry;
  registry.bind("w0", 0);
  registry.bind("w1", 1);
  bool created = false;
  EXPECT_EQ(registry.intern("alice", &created), 2);
  EXPECT_TRUE(created);
  EXPECT_EQ(registry.intern("alice", &created), 2);
  EXPECT_FALSE(created);
  EXPECT_EQ(registry.find("w1").value(), 1);
  EXPECT_FALSE(registry.find("nobody").has_value());
  ASSERT_NE(registry.name_of(2), nullptr);
  EXPECT_EQ(*registry.name_of(2), "alice");
  EXPECT_EQ(registry.name_of(99), nullptr);
}

TEST(SessionRegistry, DuplicateBindThrows) {
  SessionRegistry registry;
  registry.bind("w0", 0);
  EXPECT_THROW(registry.bind("w0", 1), std::invalid_argument);
  // Ids are positions: 0 is taken and 2 is not the next one.
  EXPECT_THROW(registry.bind("other", 0), std::invalid_argument);
  EXPECT_THROW(registry.bind("other", 2), std::invalid_argument);
}

TEST(SessionRegistry, LeadingZeroRoutesLikeItsNumberButIsAnotherName) {
  // The router sends "w05" to the range owner of worker 5, as "w5" ...
  const std::vector<int> offsets = {0, 4, 8};
  EXPECT_EQ(route_worker("w5", offsets, 8), 1);
  EXPECT_EQ(route_worker("w05", offsets, 8), 1);
  EXPECT_EQ(route_worker("w3", offsets, 8), 0);
  // ... while that shard's registry (ids 0..3 are "w4".."w7") keeps the
  // two spellings apart.
  SessionRegistry registry(4);
  for (int id = 0; id < 4; ++id) {
    registry.bind("w" + std::to_string(4 + id), id);
  }
  EXPECT_EQ(registry.find("w5").value(), 1);
  EXPECT_FALSE(registry.find("w05").has_value());
  EXPECT_FALSE(registry.find("w1").has_value());  // below the offset
  EXPECT_FALSE(registry.find("w8").has_value());  // past the last id
  EXPECT_EQ(registry.intern("w05"), 4);           // a newcomer of its own
  EXPECT_EQ(registry.find("w05").value(), 4);
  EXPECT_EQ(registry.find("w5").value(), 1);
}

TEST(SessionRegistry, NewcomerSpellingALaterIdKeepsItsOwnId) {
  SessionRegistry registry;
  registry.bind("w0", 0);
  registry.bind("w1", 1);
  EXPECT_EQ(registry.intern("w7"), 2);
  EXPECT_EQ(registry.find("w7").value(), 2);
  for (int k = 3; k < 7; ++k) registry.intern("x" + std::to_string(k));
  // Id 7's scenario name is taken by id 2.
  EXPECT_THROW(registry.bind("w7", 7), std::invalid_argument);
  EXPECT_EQ(registry.intern("w7"), 2);
  EXPECT_EQ(registry.size(), 7u);
}

TEST(SessionRegistry, SaveLoadRoundTripPreservesOrderAndBids) {
  SessionRegistry registry;
  registry.bind("w0", 0);
  registry.intern("alice");
  registry.intern("bob");
  registry.count_bid(0);
  registry.count_bid(1);
  registry.count_bid(1);

  util::binio::Writer buffer;
  registry.save(buffer);
  SessionRegistry loaded;
  loaded.intern("stale");  // load must replace wholesale
  util::binio::Reader in(buffer.bytes());
  loaded.load(in);

  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.find("alice").value(), 1);
  EXPECT_EQ(loaded.bids_submitted(0), 1u);
  EXPECT_EQ(loaded.bids_submitted(1), 2u);
  EXPECT_EQ(loaded.bids_submitted(2), 0u);
  // Interning after load continues from the persisted dense-id frontier.
  EXPECT_EQ(loaded.intern("carol"), 3);
  EXPECT_FALSE(loaded.find("stale").has_value());
}

TEST(SessionRegistry, LoadRejectsNextIdNotAboveEveryBoundId) {
  SessionRegistry registry;
  registry.bind("w0", 0);
  registry.bind("w1", 1);
  registry.bind("w2", 2);
  util::binio::Writer buffer;
  registry.save(buffer);
  std::string blob = buffer.take();
  // The blob ends with the next id as a little-endian i32: 3 -> 1.
  ASSERT_EQ(blob.substr(blob.size() - 4), std::string("\x03\0\0\0", 4));
  blob.replace(blob.size() - 4, 4, std::string("\x01\0\0\0", 4));
  util::binio::Reader corrupt(blob);
  SessionRegistry loaded;
  EXPECT_THROW(loaded.load(corrupt), std::runtime_error);
}

TEST(SessionRegistry, LoadRejectsGarbage) {
  SessionRegistry registry;
  util::binio::Reader garbage(
      std::string_view("definitely not a registry blob"));
  EXPECT_THROW(registry.load(garbage), std::runtime_error);
}

// ---------------------------------------------------------------- codec --

TEST(ProtocolCodec, RequestRoundTripsForEveryOp) {
  for (const Request& request : every_op_request()) {
    const std::string line = format_request(request);
    EXPECT_EQ(parse_request(line), request) << line;
  }
}

TEST(ProtocolCodec, ResponseRoundTrips) {
  Response ok = Response::success(41);
  ok.fields.set("run", WireValue::of(std::int64_t{7}));
  ok.fields.set("estimation_error", WireValue::of(1.8656653187601029));
  ok.fields.set("worker", WireValue::of("w3"));
  const Response ok2 = parse_response(format_response(ok));
  EXPECT_TRUE(ok2.ok);
  EXPECT_EQ(ok2.id, 41);
  EXPECT_EQ(ok2.fields.number("run"), 7.0);
  // Full double precision survives the wire (the bit-identity tests below
  // depend on comparing in-process state, but clients see exact values too).
  EXPECT_EQ(ok2.fields.number("estimation_error"), 1.8656653187601029);

  const Response overload = parse_response(
      format_response(Response::overloaded(42, 1280)));
  EXPECT_FALSE(overload.ok);
  EXPECT_EQ(overload.error, "overloaded");
  EXPECT_EQ(overload.retry_after_ms, 1280);
}

TEST(ProtocolCodec, RejectsMalformedLines) {
  EXPECT_THROW(parse_request("not json"), WireError);
  EXPECT_THROW(parse_request("{}"), WireError);  // missing op
  EXPECT_THROW(parse_request(R"({"op":"warp_core_breach","id":1})"),
               WireError);
  EXPECT_THROW(parse_request(R"({"op":"submit_bid"})"), WireError);  // worker
  EXPECT_THROW(parse_request(R"({"op":"tick","seconds":"fast"})"), WireError);
  EXPECT_THROW(parse_request(R"({"op":"hello"} trailing)"), WireError);
  // update_bid is a full replacement, so both halves of the bid are
  // mandatory (unlike submit_bid, where the payload is optional).
  EXPECT_THROW(parse_request(R"({"op":"update_bid","worker":"w1","cost":1.5})"),
               WireError);
  EXPECT_THROW(
      parse_request(R"({"op":"update_bid","worker":"w1","frequency":2})"),
      WireError);
}

TEST(ProtocolCodec, EveryOpNameRoundTripsThroughOpNamed) {
  // kShardImport is the last enumerator.
  for (int i = 0; i <= static_cast<int>(Op::kShardImport); ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_EQ(op_named(to_string(op)), op) << to_string(op);
  }
  EXPECT_EQ(op_named("warp_core_breach"), std::nullopt);
  EXPECT_EQ(op_named(""), std::nullopt);
}

// ---------------------------------------------------- shard backpressure --

ServiceConfig tiny_config() {
  ServiceConfig config;
  config.scenario.num_workers = 8;
  config.scenario.num_tasks = 6;
  config.scenario.runs = 4;
  config.scenario.budget = 30.0;
  config.seed = 7;
  config.manual_clock = true;
  return config;
}

Request bid_for(int worker, std::int64_t id) {
  Request r;
  r.op = Op::kSubmitBid;
  r.id = id;
  r.worker = "w" + std::to_string(worker);
  return r;
}

ShardPlan tiny_plan(int queue_capacity) {
  ShardPlan plan;
  plan.config = tiny_config();
  plan.config.queue_capacity = queue_capacity;
  return plan;
}

TEST(PlatformShard, FullQueueRejectsWithRetryAfter) {
  PlatformShard shard(tiny_plan(2));
  std::vector<Response> responses;
  const auto capture = [&responses](const Response& r) {
    responses.push_back(r);
  };

  EXPECT_EQ(shard.try_submit(bid_for(0, 1), capture), PushResult::kOk);
  EXPECT_EQ(shard.try_submit(bid_for(1, 2), capture), PushResult::kOk);
  const PushResult full = shard.try_submit(bid_for(2, 3), capture);
  EXPECT_EQ(full, PushResult::kFull);

  const Response rejection = shard.rejection(full, bid_for(2, 3));
  EXPECT_FALSE(rejection.ok);
  EXPECT_EQ(rejection.error, "overloaded");
  EXPECT_EQ(rejection.id, 3);
  EXPECT_GT(rejection.retry_after_ms, 0);

  // The two accepted envelopes drain in order; the rejected one never ran.
  EXPECT_TRUE(shard.poll_once(0ns));
  EXPECT_TRUE(shard.poll_once(0ns));
  EXPECT_FALSE(shard.poll_once(0ns));
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].id, 1);
  EXPECT_EQ(responses[1].id, 2);
  EXPECT_TRUE(responses[0].ok);
  // The service saw exactly the accepted submissions.
  EXPECT_EQ(shard.service().batcher().pending_bids(), 2);
}

TEST(PlatformShard, ClosedQueueRejectsPermanently) {
  PlatformShard shard(tiny_plan(4));
  shard.close();
  const PushResult closed =
      shard.try_submit(bid_for(0, 9), [](const Response&) {
        FAIL() << "callback must not run for a rejected submission";
      });
  EXPECT_EQ(closed, PushResult::kClosed);
  const Response rejection = shard.rejection(closed, bid_for(0, 9));
  EXPECT_FALSE(rejection.ok);
  EXPECT_EQ(rejection.retry_after_ms, 0);  // terminal, not retryable
}

// ------------------------------------------------------ service behavior --

TEST(AuctionService, RejectsBadConfig) {
  ServiceConfig config = tiny_config();
  config.scenario.runs = 0;
  EXPECT_THROW(AuctionService{config}, std::invalid_argument);
  config = tiny_config();
  config.estimator = "psychic";
  EXPECT_THROW(AuctionService{config}, std::invalid_argument);
  config = tiny_config();
  config.checkpoint_every = 3;  // without a checkpoint path
  EXPECT_THROW(AuctionService{config}, std::invalid_argument);
}

TEST(AuctionService, DeadlineTriggerFiresOnManualClock) {
  ServiceConfig config = tiny_config();
  config.batch.max_delay = 5.0;
  AuctionService service(config);

  Response r = service.apply(bid_for(0, 1));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.fields.number("pending_bids"), 1.0);

  Request tick;
  tick.op = Op::kTick;
  tick.seconds = 4.9;
  r = service.apply(tick);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.fields.has("runs_executed"));  // 4.9s < 5s deadline

  tick.seconds = 0.2;
  r = service.apply(tick);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.fields.number("runs_executed"), 1.0);
  EXPECT_EQ(service.records().size(), 1u);
  EXPECT_EQ(service.batcher().pending_bids(), 0);
}

TEST(AuctionService, NewcomerRegistration) {
  AuctionService service(tiny_config());
  const std::size_t base = service.platform().worker_state().size();

  Request unknown = bid_for(0, 1);
  unknown.worker = "alice";
  Response r = service.apply(unknown);
  EXPECT_FALSE(r.ok);  // no cost/frequency — not a valid newcomer
  unknown.cost = -1.0;
  unknown.frequency = 2;
  unknown.has_bid = true;
  EXPECT_FALSE(service.apply(unknown).ok);  // cost must be positive

  unknown.cost = 1.25;
  r = service.apply(unknown);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.fields.boolean_or("registered", false));
  EXPECT_EQ(r.fields.number("internal_id"), static_cast<double>(base));
  EXPECT_EQ(service.platform().worker_state().size(), base + 1);

  // Re-bidding under the same name reuses the registration.
  r = service.apply(unknown);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.fields.boolean_or("registered", false));
  EXPECT_EQ(service.registry().bids_submitted(
                static_cast<auction::WorkerId>(base)),
            2u);
}

TEST(AuctionService, UpdateBidRebidsAndCountsTowardTheBatch) {
  AuctionService service(tiny_config());
  Request update;
  update.op = Op::kUpdateBid;
  update.id = 1;
  update.worker = "w3";
  update.cost = 1.5;
  update.frequency = 2;
  update.has_bid = true;
  Response r = service.apply(update);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.fields.number("internal_id"), 3.0);
  // A re-bid participates in batching exactly like a submission.
  EXPECT_EQ(r.fields.number("pending_bids"), 1.0);
  EXPECT_EQ(service.registry().bids_submitted(3), 1u);
  EXPECT_EQ(service.batcher().pending_bids(), 1);

  // Unknown workers are never auto-registered: structured error instead.
  update.id = 2;
  update.worker = "ghost";
  r = service.apply(update);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "unknown_worker");
  EXPECT_EQ(r.fields.text("worker"), "ghost");
  EXPECT_EQ(service.platform().worker_state().size(), 8u);

  // The replacement bid must be a valid bid.
  update.worker = "w3";
  update.cost = -2.0;
  EXPECT_FALSE(service.apply(update).ok);
  update.cost = 1.5;
  update.frequency = 0;
  EXPECT_FALSE(service.apply(update).ok);
}

TEST(AuctionService, WithdrawBidSitsOutUntilResubmission) {
  AuctionService service(tiny_config());
  Request withdraw;
  withdraw.op = Op::kWithdrawBid;
  withdraw.id = 1;
  withdraw.worker = "w2";
  Response r = service.apply(withdraw);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.fields.boolean_or("withdrawn", false));
  EXPECT_TRUE(service.platform().is_withdrawn(2));
  // A withdrawal is not a bid: it must not arm the batch trigger.
  EXPECT_EQ(service.batcher().pending_bids(), 0);

  withdraw.id = 2;
  withdraw.worker = "ghost";
  r = service.apply(withdraw);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "unknown_worker");
  EXPECT_EQ(r.fields.text("worker"), "ghost");

  // A fresh submission supersedes the standing withdrawal.
  ASSERT_TRUE(service.apply(bid_for(2, 3)).ok);
  EXPECT_FALSE(service.platform().is_withdrawn(2));
}

TEST(AuctionService, RollingModeRunsOncePerTaskBatch) {
  ServiceConfig config = tiny_config();
  config.batch.per_task_arrival = true;
  AuctionService service(config);

  Request tasks;
  tasks.op = Op::kSubmitTasks;
  tasks.id = 1;
  tasks.task_count = 10;
  tasks.budget = 5.0;
  Response r = service.apply(tasks);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.fields.number("runs_executed"), 1.0);
  EXPECT_EQ(service.records().size(), 1u);

  // A zero-count submission accrues budget but schedules no run.
  tasks.id = 2;
  tasks.task_count = 0;
  r = service.apply(tasks);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.fields.has("runs_executed"));
  EXPECT_EQ(service.records().size(), 1u);
}

TEST(AuctionService, HelloAdvertisesProtocolAndRollingMode) {
  ServiceConfig config = tiny_config();
  config.batch.per_task_arrival = true;
  AuctionService service(config);
  Request hello;
  hello.op = Op::kHello;
  hello.id = 1;
  const Response r = service.apply(hello);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.fields.number("proto_version"),
            static_cast<double>(kProtoVersion));
  EXPECT_TRUE(r.fields.boolean_or("rolling", false));
  // Every platform ranks from its bid book: no mode to advertise.
  EXPECT_FALSE(r.fields.has("incremental"));
}

TEST(AuctionService, TruncatedBodyLeavesTheServiceUnchanged) {
  // The source registered a newcomer, so its registry and platform both
  // differ from the victim's. A body cut 2 bytes short ends inside the
  // platform snapshot: the load is refused and commits nothing, the
  // registry included.
  AuctionService source(tiny_config());
  Request alice = bid_for(0, 1);
  alice.worker = "alice";
  alice.cost = 1.25;
  alice.frequency = 2;
  alice.has_bid = true;
  ASSERT_TRUE(source.apply(alice).ok);
  util::binio::Writer body;
  source.save_state(body);
  const std::string cut = body.bytes().substr(0, body.bytes().size() - 2);

  AuctionService victim(tiny_config());
  util::binio::Writer before;
  victim.save_state(before);
  util::binio::Reader in(cut);
  EXPECT_THROW(victim.load_state(in), std::runtime_error);
  util::binio::Writer after;
  victim.save_state(after);
  EXPECT_EQ(after.bytes(), before.bytes());
  EXPECT_FALSE(victim.registry().find("alice").has_value());
}

TEST(AuctionService, WithdrawalSurvivesSaveAndLoadWithoutRolling) {
  // A default-config service (no --rolling) checkpoints while a worker is
  // withdrawn: the restored service must keep that worker out of the next
  // run's bids, and update_bid must still reinstate the worker.
  AuctionService service(tiny_config());
  Request withdraw;
  withdraw.op = Op::kWithdrawBid;
  withdraw.id = 1;
  withdraw.worker = "w2";
  ASSERT_TRUE(service.apply(withdraw).ok);
  std::ostringstream saved;
  service.save_state(saved);

  AuctionService restored(tiny_config());
  std::istringstream in(saved.str());
  restored.load_state(in);
  EXPECT_TRUE(restored.platform().is_withdrawn(2));

  Request run_now;
  run_now.op = Op::kRunNow;
  run_now.id = 2;
  ASSERT_TRUE(restored.apply(run_now).ok);
  // The book holds exactly the bids collected for the run.
  const auction::BidBook& book = restored.platform().bid_book();
  EXPECT_FALSE(book.contains(2));
  EXPECT_EQ(book.size(), 7u);

  Request update;
  update.op = Op::kUpdateBid;
  update.id = 3;
  update.worker = "w2";
  update.cost = 1.5;
  update.frequency = 2;
  update.has_bid = true;
  ASSERT_TRUE(restored.apply(update).ok);
  EXPECT_FALSE(restored.platform().is_withdrawn(2));
  run_now.id = 4;
  ASSERT_TRUE(restored.apply(run_now).ok);
  EXPECT_TRUE(book.contains(2));
  EXPECT_EQ(book.size(), 8u);
}

TEST(AuctionService, PostScoresOutsideTheScoreRangeAreRefused) {
  // A score the platform's range [1, 10] cannot produce is refused before
  // it reaches the estimator: 1e155 squared, or two scores of 1e308
  // summed, would store an infinite sum that no checkpoint could load.
  AuctionService service(tiny_config());
  Request post;
  post.op = Op::kPostScores;
  post.id = 1;
  post.worker = "w2";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& scores :
       {std::vector<double>{1e155}, {1e308, 1e308}, {nan}, {0.5}, {10.5},
        {5.0, -1.0}}) {
    post.scores = scores;
    const Response refused = service.apply(post);
    EXPECT_FALSE(refused.ok) << scores.front();
    EXPECT_NE(refused.error.find("score range"), std::string::npos);
  }
  post.scores = {1.0, 7.5, 10.0};
  ASSERT_TRUE(service.apply(post).ok);

  std::ostringstream saved;
  service.save_state(saved);
  AuctionService restored(tiny_config());
  std::istringstream in(saved.str());
  ASSERT_NO_THROW(restored.load_state(in));
  Request query;
  query.op = Op::kQueryWorker;
  query.id = 2;
  query.worker = "w2";
  EXPECT_EQ(restored.apply(query).fields.number("estimate"),
            service.apply(query).fields.number("estimate"));
}

TEST(AuctionService, QueryRunBoundsAndStats) {
  AuctionService service(tiny_config());
  Request query;
  query.op = Op::kQueryRun;
  query.run = 1;
  EXPECT_FALSE(service.apply(query).ok);  // nothing executed yet

  Request run_now;
  run_now.op = Op::kRunNow;
  ASSERT_TRUE(service.apply(run_now).ok);
  Response r = service.apply(query);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.fields.number("run"), 1.0);
  // No fault plan active: the fault tallies stay off the wire.
  EXPECT_FALSE(r.fields.has("no_shows"));

  Request stats;
  stats.op = Op::kStats;
  r = service.apply(stats);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.fields.number("runs_this_session"), 1.0);
  EXPECT_EQ(r.fields.number("next_run"), 2.0);
}

TEST(AuctionService, CheckpointOpIsAStructuredFailure) {
  // Checkpoint files belong to the sharded router; a standalone service
  // refuses the op without touching the file system.
  AuctionService service(tiny_config());
  Request checkpoint;
  checkpoint.op = Op::kCheckpoint;
  checkpoint.id = 7;
  checkpoint.path = ::testing::TempDir() + "/melody_standalone.ckpt";
  const Response r = service.apply(checkpoint);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.id, 7);
  EXPECT_NE(r.error.find("checkpoint"), std::string::npos) << r.error;
  EXPECT_FALSE(std::ifstream(checkpoint.path).good());
}

// ------------------------------------------- stdio e2e and bit-identity --

sim::LongTermScenario e2e_scenario() {
  sim::LongTermScenario s;
  s.num_workers = 40;
  s.num_tasks = 30;
  s.runs = 16;
  s.budget = 120.0;
  return s;
}

constexpr std::uint64_t kSeed = 2017;

/// The melody_sim batch run the service must reproduce: identical
/// construction recipe (same seed derivations through the same factories).
std::vector<sim::RunRecord> batch_records(const sim::LongTermScenario& s,
                                          const sim::FaultPlan& plan) {
  auction::MelodyAuction mechanism(auction::PaymentRule::kCriticalValue);
  auto estimator =
      estimators::make("melody", {.initial_mu = s.initial_mu,
                                  .initial_sigma = s.initial_sigma,
                                  .reestimation_period = s.reestimation_period});
  util::Rng population_rng(kSeed);
  sim::Platform platform(
      s, mechanism, *estimator,
      sim::sample_population(s.population_config(), population_rng),
      kSeed + 1);
  if (plan.active()) platform.set_fault_plan(plan);
  return platform.run_all();
}

/// One trace round: every population worker bids once. With the default
/// batch policy (min_bids = num_workers) the last bid triggers the run.
void append_round(std::ostream& trace, int workers, std::int64_t* next_id) {
  for (int w = 0; w < workers; ++w) {
    Request r = bid_for(w, (*next_id)++);
    trace << format_request(r) << "\n";
  }
}

ServiceConfig e2e_config() {
  ServiceConfig config;
  config.scenario = e2e_scenario();
  config.seed = kSeed;
  config.manual_clock = true;
  return config;
}

TEST(StdioSession, BitIdenticalToBatchRun) {
  const sim::LongTermScenario scenario = e2e_scenario();
  const std::vector<sim::RunRecord> expected =
      batch_records(scenario, sim::FaultPlan{});

  ShardedService service(e2e_config());
  const AuctionService& shard = service.shard(0).service();
  std::stringstream trace;
  std::int64_t next_id = 1;
  for (int round = 0; round < scenario.runs; ++round) {
    append_round(trace, scenario.num_workers, &next_id);
  }
  // Interleave queries mid-trace: reads must not perturb the run stream.
  Request query;
  query.op = Op::kQueryRun;
  query.id = next_id++;
  query.run = scenario.runs;
  trace << format_request(query) << "\n";

  std::ostringstream responses;
  const FrameTally result = run_stdio_session(service, trace, responses);
  EXPECT_EQ(result.parse_errors, 0u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_FALSE(service.shutdown_requested());

  ASSERT_EQ(shard.records().size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(shard.records()[k], expected[k]) << "run " << k + 1;
  }
  // The wire answer for the final run carries the exact record values.
  std::string line;
  std::istringstream lines(responses.str());
  std::string last;
  while (std::getline(lines, line)) {
    if (!line.empty()) last = line;
  }
  const Response final_run = parse_response(last);
  ASSERT_TRUE(final_run.ok) << final_run.error;
  EXPECT_EQ(final_run.fields.number("estimation_error"),
            expected.back().estimation_error);
  EXPECT_EQ(final_run.fields.number("total_payment"),
            expected.back().total_payment);
}

TEST(StdioSession, IncrementalServiceStaysBitIdenticalToBatch) {
  // The service keeps the price ladder across runs instead of rebuilding
  // it; the allocation (and hence every record) must not move.
  const sim::LongTermScenario scenario = e2e_scenario();
  const std::vector<sim::RunRecord> expected =
      batch_records(scenario, sim::FaultPlan{});

  ServiceConfig config = e2e_config();
  ShardedService service(config);
  const AuctionService& shard = service.shard(0).service();
  std::stringstream trace;
  std::int64_t next_id = 1;
  for (int round = 0; round < scenario.runs; ++round) {
    append_round(trace, scenario.num_workers, &next_id);
  }
  std::ostringstream responses;
  run_stdio_session(service, trace, responses);

  ASSERT_EQ(shard.records().size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(shard.records()[k], expected[k]) << "run " << k + 1;
  }
  EXPECT_EQ(shard.platform().bid_book().size(),
            static_cast<std::size_t>(scenario.num_workers));
  EXPECT_EQ(shard.platform().bid_book().check_links(), "");
}

TEST(StdioSession, BitIdenticalWithFaultPlanAttached) {
  sim::FaultPlan plan;
  plan.no_show_rate = 0.1;
  plan.score_drop_rate = 0.1;
  plan.score_corrupt_rate = 0.05;
  plan.churn_rate = 0.2;
  plan.churn_min_absence = 2;
  plan.churn_max_absence = 5;
  const sim::LongTermScenario scenario = e2e_scenario();
  const std::vector<sim::RunRecord> expected = batch_records(scenario, plan);

  ServiceConfig config = e2e_config();
  config.faults = plan;
  ShardedService service(config);
  const AuctionService& shard = service.shard(0).service();
  std::stringstream trace;
  std::int64_t next_id = 1;
  for (int round = 0; round < scenario.runs; ++round) {
    append_round(trace, scenario.num_workers, &next_id);
  }
  std::ostringstream responses;
  run_stdio_session(service, trace, responses);

  ASSERT_EQ(shard.records().size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(shard.records()[k], expected[k]) << "run " << k + 1;
  }
}

TEST(StdioSession, CheckpointKillResumeStaysBitIdentical) {
  const sim::LongTermScenario scenario = e2e_scenario();
  const std::vector<sim::RunRecord> expected =
      batch_records(scenario, sim::FaultPlan{});
  const int interrupt_after = scenario.runs / 2;
  const std::string path =
      ::testing::TempDir() + "/melody_svc_e2e.ckpt";

  std::vector<sim::RunRecord> prefix;
  {
    ShardedService service(e2e_config());
    const AuctionService& shard = service.shard(0).service();
    std::stringstream trace;
    std::int64_t next_id = 1;
    for (int round = 0; round < interrupt_after; ++round) {
      append_round(trace, scenario.num_workers, &next_id);
    }
    Request checkpoint;
    checkpoint.op = Op::kCheckpoint;
    checkpoint.id = next_id++;
    checkpoint.path = path;
    trace << format_request(checkpoint) << "\n";
    std::ostringstream responses;
    const FrameTally result = run_stdio_session(service, trace, responses);
    EXPECT_EQ(result.parse_errors, 0u);
    prefix = shard.records();
    ASSERT_EQ(static_cast<int>(prefix.size()), interrupt_after);
  }  // the "killed" service is gone; only the checkpoint file survives

  ShardedService service(e2e_config());
  const AuctionService& shard = service.shard(0).service();
  service.restore(path);
  EXPECT_EQ(shard.platform().current_run(), interrupt_after + 1);
  std::stringstream trace;
  std::int64_t next_id = 100000;
  for (int round = interrupt_after; round < scenario.runs; ++round) {
    append_round(trace, scenario.num_workers, &next_id);
  }
  // Records from before the restore are gone by design.
  Request stale;
  stale.op = Op::kQueryRun;
  stale.id = next_id++;
  stale.run = 1;
  trace << format_request(stale) << "\n";
  Request shutdown;
  shutdown.op = Op::kShutdown;
  shutdown.id = next_id++;
  trace << format_request(shutdown) << "\n";

  std::ostringstream responses;
  run_stdio_session(service, trace, responses);
  EXPECT_TRUE(service.shutdown_requested());

  std::vector<sim::RunRecord> all = prefix;
  all.insert(all.end(), shard.records().begin(), shard.records().end());
  ASSERT_EQ(all.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(all[k], expected[k]) << "run " << k + 1;
  }

  // The stale query_run answered with the predates-this-session error.
  std::vector<Response> parsed;
  std::istringstream lines(responses.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) parsed.push_back(parse_response(line));
  }
  ASSERT_GE(parsed.size(), 2u);
  const Response& stale_answer = parsed[parsed.size() - 2];
  EXPECT_FALSE(stale_answer.ok);
  EXPECT_NE(stale_answer.error.find("predates"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StdioSession, ParseErrorsAnswerWithoutKillingTheSession) {
  ShardedService service(tiny_config());
  std::stringstream trace;
  trace << "this is not a request\n";
  trace << format_request(bid_for(0, 2)) << "\n";
  std::ostringstream responses;
  const FrameTally result = run_stdio_session(service, trace, responses);
  EXPECT_EQ(result.parse_errors, 1u);
  EXPECT_EQ(result.requests, 1u);

  std::istringstream lines(responses.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const Response bad = parse_response(line);
  EXPECT_FALSE(bad.ok);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(parse_response(line).ok);
}

TEST(StdioSession, ExitAfterRunsRequestsShutdown) {
  ServiceConfig config = tiny_config();
  config.exit_after_runs = 1;
  ShardedService service(config);
  const AuctionService& shard = service.shard(0).service();
  std::stringstream trace;
  std::int64_t next_id = 1;
  // Two full rounds queued, but the session must stop after round one.
  append_round(trace, config.scenario.num_workers, &next_id);
  append_round(trace, config.scenario.num_workers, &next_id);
  std::ostringstream responses;
  run_stdio_session(service, trace, responses);
  EXPECT_TRUE(service.shutdown_requested());
  EXPECT_EQ(shard.records().size(), 1u);
}

}  // namespace
}  // namespace melody::svc
