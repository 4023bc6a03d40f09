// Load-generation building blocks (svc/loadgen.h): the pure counter-based
// request stream and the open-loop schedule's deterministic-retry contract
// — the fresh-arrival grid NEVER shifts, rejected requests re-send on
// their retry_after_ms hint with a bounded budget, and due retries take
// priority over fresh sends.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "svc/loadgen.h"
#include "svc/protocol.h"

namespace melody::svc::loadgen {
namespace {

TEST(LoadgenStream, RequestsArePureFunctionsOfSeedClientIndex) {
  const StreamConfig config{.seed = 7, .workers = 50, .task_budget = 200.0};
  for (int client = 0; client < 3; ++client) {
    for (int index = 0; index < 64; ++index) {
      const Request a = make_request(config, client, index);
      const Request b = make_request(config, client, index);
      EXPECT_EQ(a, b) << "client " << client << " index " << index;
      EXPECT_EQ(a.id, static_cast<std::int64_t>(client) * 1000000 + index + 1);
    }
  }
  // Counter-based streams: a different coordinate is a different stream
  // (spot-check — equality would mean the derivation ignores an input).
  EXPECT_NE(make_request(config, 0, 0), make_request(config, 1, 0));
  EXPECT_NE(make_request(config, 0, 0), make_request(config, 0, 1));
  const StreamConfig reseeded{.seed = 8, .workers = 50, .task_budget = 200.0};
  int differing = 0;
  for (int index = 0; index < 64; ++index) {
    if (!(make_request(config, 0, index) == make_request(reseeded, 0, index))) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(LoadgenStream, ProtoThreeMixCarvesOutTheContinuousAuctionOps) {
  const StreamConfig config;  // default: the one protocol version
  std::map<Op, int> counts;
  int newcomers = 0;
  const int n = 20000;
  for (int index = 0; index < n; ++index) {
    const Request r = make_request(config, 0, index);
    ++counts[r.op];
    if (r.op == Op::kSubmitBid && r.has_bid) ++newcomers;
    if (r.op == Op::kSubmitTasks) {
      EXPECT_GE(r.task_count, 50);
      EXPECT_LE(r.task_count, 500);
      EXPECT_GT(r.budget, 0.0);
    }
    if (r.op == Op::kUpdateBid) {
      EXPECT_TRUE(r.has_bid);
      EXPECT_GT(r.cost, 0.0);
      EXPECT_GE(r.frequency, 1);
    }
    if (r.op == Op::kWithdrawBid) {
      EXPECT_FALSE(r.worker.empty());
    }
  }
  // 64% submit_bid (2% of which are newcomer registrations), 6%
  // update_bid, 2% withdraw_bid, 10% submit_tasks, 10% query_worker, 5%
  // query_run, 3% stats — each within a generous tolerance.
  EXPECT_NEAR(counts[Op::kSubmitBid] / double(n), 0.64, 0.02);
  EXPECT_NEAR(newcomers / double(n), 0.02, 0.01);
  EXPECT_NEAR(counts[Op::kUpdateBid] / double(n), 0.06, 0.015);
  EXPECT_NEAR(counts[Op::kWithdrawBid] / double(n), 0.02, 0.01);
  EXPECT_NEAR(counts[Op::kSubmitTasks] / double(n), 0.10, 0.02);
  EXPECT_NEAR(counts[Op::kQueryWorker] / double(n), 0.10, 0.02);
  EXPECT_NEAR(counts[Op::kQueryRun] / double(n), 0.05, 0.015);
  EXPECT_NEAR(counts[Op::kStats] / double(n), 0.03, 0.015);
  // There is one protocol version; a stream for any other is refused.
  EXPECT_THROW(make_request(StreamConfig{.proto = 2}, 0, 0),
               std::invalid_argument);
}

using Kind = OpenLoopSchedule::Action::Kind;

TEST(OpenLoopSchedule, FreshGridNeverShiftsUnderRejections) {
  OpenLoopSchedule schedule(4, 100.0);  // fresh sends due every 10 ms
  for (int k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(schedule.fresh_due(k), k * 0.010);
  }
  auto action = schedule.next(0.0);
  ASSERT_EQ(action.kind, Kind::kSend);
  EXPECT_EQ(action.index, 0);
  EXPECT_FALSE(action.is_retry);

  // Request 0 bounces with a 25 ms hint: the retry lands at 26 ms, and the
  // fresh grid is exactly where it always was.
  EXPECT_TRUE(schedule.note_rejected(0, 0.001, 25.0));
  for (int k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(schedule.fresh_due(k), k * 0.010);
  }
  action = schedule.next(0.002);
  ASSERT_EQ(action.kind, Kind::kWait);
  EXPECT_DOUBLE_EQ(action.wait_until, 0.010);  // fresh 1, not the retry

  action = schedule.next(0.010);
  ASSERT_EQ(action.kind, Kind::kSend);
  EXPECT_EQ(action.index, 1);
  action = schedule.next(0.020);
  ASSERT_EQ(action.kind, Kind::kSend);
  EXPECT_EQ(action.index, 2);
  action = schedule.next(0.0201);
  ASSERT_EQ(action.kind, Kind::kWait);
  EXPECT_NEAR(action.wait_until, 0.026, 1e-12);  // the retry is now nearest

  action = schedule.next(0.0265);
  ASSERT_EQ(action.kind, Kind::kSend);
  EXPECT_EQ(action.index, 0);
  EXPECT_TRUE(action.is_retry);

  action = schedule.next(0.030);
  ASSERT_EQ(action.kind, Kind::kSend);
  EXPECT_EQ(action.index, 3);
  EXPECT_EQ(schedule.next(0.031).kind, Kind::kDone);
  EXPECT_EQ(schedule.fresh_sent(), 4);
  EXPECT_EQ(schedule.retries_sent(), 1);
  EXPECT_EQ(schedule.retries_dropped(), 0);
}

TEST(OpenLoopSchedule, DueRetriesGoBeforeDueFreshSends) {
  OpenLoopSchedule schedule(3, 100.0);
  ASSERT_EQ(schedule.next(0.0).index, 0);
  EXPECT_TRUE(schedule.note_rejected(0, 0.001, 5.0));
  // At t = 10 ms both the retry (due 6 ms) and fresh 1 (due 10 ms) are
  // due: the already-late retry goes first, the grid is untouched.
  auto action = schedule.next(0.010);
  ASSERT_EQ(action.kind, Kind::kSend);
  EXPECT_EQ(action.index, 0);
  EXPECT_TRUE(action.is_retry);
  action = schedule.next(0.010);
  ASSERT_EQ(action.kind, Kind::kSend);
  EXPECT_EQ(action.index, 1);
  EXPECT_FALSE(action.is_retry);
}

TEST(OpenLoopSchedule, RetryTiesBreakOnIndexAndBudgetIsBounded) {
  OpenLoopSchedule schedule(5, 0.0, /*max_retries=*/2);  // all due at once
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(schedule.next(0.0).index, k);
  }
  // Two rejections due at the same instant drain in index order.
  EXPECT_TRUE(schedule.note_rejected(3, 0.0, 10.0));
  EXPECT_TRUE(schedule.note_rejected(1, 0.0, 10.0));
  auto action = schedule.next(0.010);
  ASSERT_EQ(action.kind, Kind::kSend);
  EXPECT_EQ(action.index, 1);
  EXPECT_EQ(schedule.next(0.010).index, 3);

  // Request 1 keeps bouncing: the budget (2) exhausts, the drop is counted.
  EXPECT_TRUE(schedule.note_rejected(1, 0.011, 1.0));
  EXPECT_FALSE(schedule.note_rejected(1, 0.012, 1.0));
  EXPECT_EQ(schedule.retries_dropped(), 1);
  action = schedule.next(0.013);
  ASSERT_EQ(action.kind, Kind::kSend);
  EXPECT_EQ(action.index, 1);
  EXPECT_EQ(schedule.next(0.013).kind, Kind::kDone);
  EXPECT_EQ(schedule.retries_sent(), 3);
}

TEST(OpenLoopSchedule, OutOfRangeIndexesAreIgnored) {
  OpenLoopSchedule schedule(2, 0.0);
  EXPECT_FALSE(schedule.note_rejected(-1, 0.0, 1.0));
  EXPECT_FALSE(schedule.note_rejected(2, 0.0, 1.0));
  EXPECT_EQ(schedule.retries_sent(), 0);
}

}  // namespace
}  // namespace melody::svc::loadgen
