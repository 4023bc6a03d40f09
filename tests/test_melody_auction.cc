// Hand-verified instances for Algorithm 1 plus structural behaviour tests.
#include "auction/melody_auction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "auction/bid_book.h"
#include "auction/random_auction.h"

namespace melody::auction {
namespace {

AuctionConfig open_config(double budget) {
  AuctionConfig config;
  config.budget = budget;
  return config;  // no qualification filtering
}

// Ranking queue (mu/c): w0 (4/1), w1 (3/1), w2 (4/2), w3 (2/2).
std::vector<WorkerProfile> four_workers(int frequency = 5) {
  return {{0, {1.0, frequency}, 4.0},
          {1, {1.0, frequency}, 3.0},
          {2, {2.0, frequency}, 4.0},
          {3, {2.0, frequency}, 2.0}};
}

TEST(MelodyAuction, HandComputedSingleTask) {
  MelodyAuction auction;
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 6.0}};
  const auto result = auction.run({workers, tasks, open_config(100.0)});

  // Prefix w0 + w1 covers 6; reference worker is w2 with c/mu = 0.5.
  ASSERT_EQ(result.selected_tasks.size(), 1u);
  EXPECT_TRUE(result.is_assigned(0, 0));
  EXPECT_TRUE(result.is_assigned(1, 0));
  EXPECT_FALSE(result.is_assigned(2, 0));
  ASSERT_EQ(result.assignments.size(), 2u);
  EXPECT_DOUBLE_EQ(result.payment_to(0), 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(result.payment_to(1), 0.5 * 3.0);
  EXPECT_DOUBLE_EQ(result.total_payment(), 3.5);
}

TEST(MelodyAuction, HandComputedTwoTasksPaperRule) {
  // Under the paper-literal rule task 1 (Q = 10) is priced from w3.
  MelodyAuction auction(PaymentRule::kPaperNextInQueue);
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 6.0}, {1, 10.0}};
  const auto result = auction.run({workers, tasks, open_config(100.0)});

  ASSERT_EQ(result.selected_tasks.size(), 2u);
  // Task 1 needs w0+w1+w2 = 11 >= 10; reference is w3 with c/mu = 1.
  EXPECT_DOUBLE_EQ(result.payment_to(0), 0.5 * 4.0 + 1.0 * 4.0);
  EXPECT_DOUBLE_EQ(result.payment_to(1), 0.5 * 3.0 + 1.0 * 3.0);
  EXPECT_DOUBLE_EQ(result.payment_to(2), 1.0 * 4.0);
  EXPECT_DOUBLE_EQ(result.total_payment(), 3.5 + 11.0);
}

TEST(MelodyAuction, CriticalRuleDropsMonopolizedTask) {
  // Task 1 (Q = 10) cannot be covered without w0 (3 + 4 + 2 = 9 < 10), so
  // w0 has no critical price: under the critical-value rule the task is
  // unpriceable and dropped, while task 0 is still served.
  MelodyAuction auction(PaymentRule::kCriticalValue);
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 6.0}, {1, 10.0}};
  const auto result = auction.run({workers, tasks, open_config(100.0)});
  ASSERT_EQ(result.selected_tasks.size(), 1u);
  EXPECT_EQ(result.selected_tasks[0], 0);
  EXPECT_DOUBLE_EQ(result.total_payment(), 3.5);
}

TEST(MelodyAuction, CriticalRuleReferencesCompletionWithoutWinner) {
  // Workers: w0 (mu 4, c 1), w1 (mu 3, c 1), w2 (mu 4, c 2), w3 (mu 2, c 2).
  // Task Q = 7 -> winners w0 + w1. Without w0 coverage completes at w2
  // (3 + 4 = 7); without w1 it also completes at w2 (4 + 4 = 8). Both pay
  // ratio 0.5.
  MelodyAuction auction(PaymentRule::kCriticalValue);
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 7.0}};
  const auto result = auction.run({workers, tasks, open_config(100.0)});
  ASSERT_EQ(result.selected_tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(result.payment_to(0), 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(result.payment_to(1), 0.5 * 3.0);
}

TEST(MelodyAuction, BudgetSelectsCheapestTasks) {
  MelodyAuction auction;
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 6.0}, {1, 10.0}};
  // P_0 = 3.5, P_1 = 11: a budget of 10 only affords task 0.
  const auto result = auction.run({workers, tasks, open_config(10.0)});
  ASSERT_EQ(result.selected_tasks.size(), 1u);
  EXPECT_EQ(result.selected_tasks[0], 0);
  EXPECT_DOUBLE_EQ(result.total_payment(), 3.5);
}

TEST(MelodyAuction, ZeroBudgetSelectsNothing) {
  MelodyAuction auction;
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 6.0}};
  const auto result = auction.run({workers, tasks, open_config(0.0)});
  EXPECT_TRUE(result.selected_tasks.empty());
  EXPECT_TRUE(result.assignments.empty());
}

TEST(MelodyAuction, FrequencyLimitsReuse) {
  MelodyAuction auction;
  const auto workers = four_workers(/*frequency=*/1);
  const std::vector<Task> tasks{{0, 6.0}, {1, 10.0}};
  const auto result = auction.run({workers, tasks, open_config(100.0)});
  // Task 0 exhausts w0 and w1; the rest (w2 + w3 = 6) cannot cover 10.
  ASSERT_EQ(result.selected_tasks.size(), 1u);
  EXPECT_EQ(result.selected_tasks[0], 0);
}

TEST(MelodyAuction, TaskNeedingWholeQueueIsDropped) {
  // Coverage requires every worker, so no (k+1)-th critical worker exists:
  // the task cannot be truthfully priced and must be dropped.
  MelodyAuction auction;
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 12.5}};  // total quality is 13
  const auto result = auction.run({workers, tasks, open_config(1000.0)});
  EXPECT_TRUE(result.selected_tasks.empty());
}

TEST(MelodyAuction, UncoverableTaskIsDropped) {
  MelodyAuction auction;
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 14.0}};  // exceeds total quality 13
  const auto result = auction.run({workers, tasks, open_config(1000.0)});
  EXPECT_TRUE(result.selected_tasks.empty());
}

TEST(MelodyAuction, TasksProcessedInThresholdOrder) {
  MelodyAuction auction;
  const auto workers = four_workers(/*frequency=*/1);
  // Given in reverse order; the easy task (id 7) must still be pre-allocated
  // first and win the scarce workers.
  const std::vector<Task> tasks{{3, 10.0}, {7, 6.0}};
  const auto result = auction.run({workers, tasks, open_config(100.0)});
  ASSERT_EQ(result.selected_tasks.size(), 1u);
  EXPECT_EQ(result.selected_tasks[0], 7);
}

TEST(MelodyAuction, QualificationFilterExcludesWorkers) {
  MelodyAuction auction;
  auto config = open_config(100.0);
  config.theta_min = 3.0;  // w3 (mu=2) is unqualified
  config.theta_max = 10.0;
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 10.0}};
  // Qualified queue: w0, w1, w2 with total 11; covering 10 needs all three,
  // leaving no critical worker -> dropped.
  const auto result = auction.run({workers, tasks, config});
  EXPECT_TRUE(result.selected_tasks.empty());
}

TEST(MelodyAuction, CostFilterExcludesWorkers) {
  MelodyAuction auction;
  auto config = open_config(100.0);
  config.cost_max = 1.5;  // w2, w3 excluded
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 3.0}};
  const auto result = auction.run({workers, tasks, config});
  // Queue: w0, w1. Task needs w0 only (4 >= 3); without w0 coverage
  // completes at w1 (3 >= 3), so w0 pays ratio 1/3.
  ASSERT_EQ(result.selected_tasks.size(), 1u);
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].worker, 0);
  EXPECT_DOUBLE_EQ(result.assignments[0].payment, (1.0 / 3.0) * 4.0);
}

TEST(MelodyAuction, InvalidWorkersIgnored) {
  MelodyAuction auction;
  std::vector<WorkerProfile> workers{
      {0, {0.0, 3}, 4.0},   // zero cost
      {1, {1.0, 0}, 4.0},   // zero frequency
      {2, {1.0, 3}, 0.0},   // zero quality
      {3, {1.0, 3}, 4.0},   // valid
      {4, {1.0, 3}, 4.0},   // valid (critical reference)
  };
  const std::vector<Task> tasks{{0, 4.0}};
  const auto result = auction.run({workers, tasks, open_config(100.0)});
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].worker, 3);
}

TEST(MelodyAuction, NonFiniteBudgetOrThresholdIsRejectedByEveryMechanism) {
  // A NaN or infinite budget never stops the commit stage (the auction
  // would pay for every task it can cover), and a NaN or -inf threshold
  // counts a task as satisfied: run() refuses both on the span and the
  // book path, for every mechanism, before ranking anything.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto workers = four_workers(1);
  BidBook book;
  for (const WorkerProfile& w : workers) book.upsert(w);
  const std::vector<Task> finite_tasks{{0, 6.0}, {1, 4.0}};
  MelodyAuction melody;
  RandomAuction random(7);
  for (Mechanism* mechanism : {static_cast<Mechanism*>(&melody),
                               static_cast<Mechanism*>(&random)}) {
    SCOPED_TRACE(mechanism->name());
    EXPECT_NO_THROW(mechanism->run({workers, finite_tasks, open_config(10.0)}));
    for (const double budget : {kNaN, kInf, -kInf}) {
      EXPECT_THROW(
          mechanism->run({workers, finite_tasks, open_config(budget)}),
          std::invalid_argument)
          << "budget " << budget;
      AuctionContext from_book{{}, finite_tasks, open_config(budget)};
      from_book.book = &book;
      EXPECT_THROW(mechanism->run(from_book), std::invalid_argument)
          << "budget " << budget << " from the book";
    }
    for (const double threshold : {kNaN, kInf, -kInf}) {
      const std::vector<Task> tasks{{0, 6.0}, {1, threshold}};
      EXPECT_THROW(mechanism->run({workers, tasks, open_config(10.0)}),
                   std::invalid_argument)
          << "threshold " << threshold;
    }
  }
}

TEST(MelodyAuction, NonFiniteBidIsNotAdmittedOnSpanOrBookPath) {
  // A bid of infinite cost and infinite quality has density inf/inf = NaN.
  // Under the default unbounded [C_m, C_M] and [Theta_m, Theta_M] it must
  // still not enter the queue: both ranking paths then give exactly the
  // auction without it, and every payment is finite. The first market has
  // no critical worker left after the winners (the task is dropped); the
  // second adds one, so the winners are priced.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const WorkerProfile non_finite{1, {kInf, 1}, kInf};
  const std::vector<Task> tasks{{0, 5.0}};
  const AuctionConfig config = open_config(100.0);
  MelodyAuction auction;
  for (const std::vector<WorkerProfile>& finite :
       {std::vector<WorkerProfile>{{0, {1.0, 1}, 4.0}, {2, {2.0, 1}, 3.0}},
        std::vector<WorkerProfile>{
            {0, {1.0, 1}, 4.0}, {2, {2.0, 1}, 3.0}, {3, {4.0, 1}, 2.0}}}) {
    std::vector<WorkerProfile> workers = finite;
    workers.insert(workers.begin() + 1, non_finite);
    BidBook book;
    for (const WorkerProfile& w : workers) book.upsert(w);
    AuctionContext from_book{{}, tasks, config};
    from_book.book = &book;

    const AllocationResult expected = auction.run({finite, tasks, config});
    const AllocationResult span = auction.run({workers, tasks, config});
    const AllocationResult booked = auction.run(from_book);
    for (const auto& [path, result] : {std::pair{"span", &span},
                                       std::pair{"book", &booked}}) {
      SCOPED_TRACE(testing::Message() << path << " path, "
                                      << finite.size() << " finite bids");
      EXPECT_EQ(result->selected_tasks, expected.selected_tasks);
      EXPECT_EQ(result->assignments.size(), expected.assignments.size());
      for (const Assignment& got : result->assignments) {
        EXPECT_TRUE(std::isfinite(got.payment)) << "worker " << got.worker;
      }
      const std::size_t common =
          std::min(result->assignments.size(), expected.assignments.size());
      for (std::size_t i = 0; i < common; ++i) {
        const Assignment& got = result->assignments[i];
        EXPECT_EQ(got.worker, expected.assignments[i].worker);
        EXPECT_EQ(got.task, expected.assignments[i].task);
        EXPECT_EQ(got.payment, expected.assignments[i].payment);
      }
    }
  }
}

TEST(MelodyAuction, EmptyInputs) {
  MelodyAuction auction;
  const std::vector<WorkerProfile> no_workers;
  const std::vector<Task> no_tasks;
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 6.0}};
  EXPECT_TRUE(auction.run({no_workers, tasks, open_config(10.0)})
                  .selected_tasks.empty());
  EXPECT_TRUE(auction.run({workers, no_tasks, open_config(10.0)})
                  .selected_tasks.empty());
}

TEST(MelodyAuction, PaymentNeverBelowCost) {
  // Individual rationality on the hand instance: every winner's payment per
  // task is at least his bid cost.
  MelodyAuction auction;
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 6.0}, {1, 10.0}, {2, 8.0}};
  const auto result = auction.run({workers, tasks, open_config(1000.0)});
  for (const auto& a : result.assignments) {
    const double cost = workers[static_cast<std::size_t>(a.worker)].bid.cost;
    EXPECT_GE(a.payment, cost - 1e-12);
  }
}

TEST(MelodyAuction, ResultPassesAllValidators) {
  MelodyAuction auction;
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 6.0}, {1, 10.0}, {2, 8.0}, {3, 3.0}};
  const auto config = open_config(20.0);
  const auto result = auction.run({workers, tasks, config});
  EXPECT_EQ(check_budget_feasibility(result, config), "");
  EXPECT_EQ(check_frequency_feasibility(result, workers), "");
  EXPECT_EQ(check_task_satisfaction(result, workers, tasks), "");
}

TEST(MelodyAuction, DeterministicAcrossCalls) {
  MelodyAuction auction;
  const auto workers = four_workers();
  const std::vector<Task> tasks{{0, 6.0}, {1, 10.0}};
  const auto a = auction.run({workers, tasks, open_config(50.0)});
  const auto b = auction.run({workers, tasks, open_config(50.0)});
  EXPECT_EQ(a.selected_tasks, b.selected_tasks);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].worker, b.assignments[i].worker);
    EXPECT_EQ(a.assignments[i].task, b.assignments[i].task);
    EXPECT_EQ(a.assignments[i].payment, b.assignments[i].payment);
  }
}

TEST(MelodyAuction, NameIsStable) {
  EXPECT_EQ(MelodyAuction().name(), "MELODY");
}

}  // namespace
}  // namespace melody::auction
