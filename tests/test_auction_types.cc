#include "auction/types.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace melody::auction {
namespace {

TEST(AuctionConfig, QualificationFilter) {
  AuctionConfig config;
  config.theta_min = 2.0;
  config.theta_max = 4.0;
  config.cost_min = 1.0;
  config.cost_max = 2.0;

  WorkerProfile ok{1, {1.5, 3}, 3.0};
  EXPECT_TRUE(config.qualifies(ok));

  WorkerProfile low_quality{2, {1.5, 3}, 1.9};
  EXPECT_FALSE(config.qualifies(low_quality));
  WorkerProfile high_quality{3, {1.5, 3}, 4.1};
  EXPECT_FALSE(config.qualifies(high_quality));
  WorkerProfile cheap{4, {0.5, 3}, 3.0};
  EXPECT_FALSE(config.qualifies(cheap));
  WorkerProfile expensive{5, {2.5, 3}, 3.0};
  EXPECT_FALSE(config.qualifies(expensive));

  // Boundary values are inclusive.
  WorkerProfile edges{6, {1.0, 1}, 2.0};
  EXPECT_TRUE(config.qualifies(edges));
  WorkerProfile edges_hi{7, {2.0, 1}, 4.0};
  EXPECT_TRUE(config.qualifies(edges_hi));
}

TEST(AuctionConfig, DefaultAcceptsEverything) {
  const AuctionConfig config;
  EXPECT_TRUE(config.qualifies({1, {100.0, 1}, 0.5}));
}

TEST(AuctionConfig, AdmitsOnlyPositiveFiniteQualifiedBids) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const AuctionConfig open;
  EXPECT_TRUE(open.admits({1, {100.0, 1}, 0.5}));
  EXPECT_FALSE(open.admits({1, {0.0, 1}, 0.5}));    // zero cost
  EXPECT_FALSE(open.admits({1, {1.0, 0}, 0.5}));    // zero frequency
  EXPECT_FALSE(open.admits({1, {1.0, 1}, -0.5}));   // negative quality
  EXPECT_FALSE(open.admits({1, {kInf, 1}, 0.5}));   // range-qualified...
  EXPECT_FALSE(open.admits({1, {1.0, 1}, kInf}));   // ...but not finite
  EXPECT_FALSE(open.admits({1, {kInf, 1}, kInf}));
  EXPECT_FALSE(open.admits({1, {kNaN, 1}, 0.5}));
  EXPECT_FALSE(open.admits({1, {1.0, 1}, kNaN}));
  AuctionConfig bounded;
  bounded.cost_max = 2.0;
  EXPECT_TRUE(bounded.admits(0.5, 2.0, 1));
  EXPECT_FALSE(bounded.admits(0.5, 2.5, 1));  // the range filter still holds
}

TEST(AuctionConfig, AcceptsOnlyFiniteBudgetsAndThresholds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  AuctionConfig config;
  config.budget = 10.0;
  const std::vector<Task> tasks{{0, 5.0}, {1, 0.0}};
  EXPECT_TRUE(config.accepts(tasks));
  EXPECT_TRUE(config.accepts({}));
  for (const double bad : {kNaN, kInf, -kInf}) {
    std::vector<Task> with_bad = tasks;
    with_bad.push_back({2, bad});
    EXPECT_FALSE(config.accepts(with_bad)) << "threshold " << bad;
    AuctionConfig bad_budget = config;
    bad_budget.budget = bad;
    EXPECT_FALSE(bad_budget.accepts(tasks)) << "budget " << bad;
  }
}

TEST(AuctionConfig, LambdaMatchesLemma3) {
  AuctionConfig config;
  config.theta_min = 2.0;
  config.theta_max = 4.0;
  config.cost_min = 1.0;
  config.cost_max = 2.0;
  // lambda = C_M^2 (Theta_m + Theta_M) Theta_M^2 / (C_m^2 Theta_m^3)
  //        = 4 * 6 * 16 / (1 * 8) = 48 (the paper's "48 beta" remark).
  EXPECT_DOUBLE_EQ(config.lambda(), 48.0);
}

TEST(AuctionConfig, LambdaInfiniteForDegenerateIntervals) {
  AuctionConfig config;  // cost_min = theta_min = 0
  EXPECT_TRUE(std::isinf(config.lambda()));
}

TEST(AllocationResult, TotalsAndLookups) {
  AllocationResult r;
  r.assignments = {{1, 10, 2.0}, {1, 11, 3.0}, {2, 10, 1.5}};
  r.selected_tasks = {10, 11};

  EXPECT_DOUBLE_EQ(r.total_payment(), 6.5);
  EXPECT_DOUBLE_EQ(r.payment_to(1), 5.0);
  EXPECT_DOUBLE_EQ(r.payment_to(2), 1.5);
  EXPECT_DOUBLE_EQ(r.payment_to(99), 0.0);
  EXPECT_EQ(r.tasks_assigned_to(1), 2);
  EXPECT_EQ(r.tasks_assigned_to(2), 1);
  EXPECT_EQ(r.tasks_assigned_to(99), 0);
  EXPECT_EQ(r.requester_utility(), 2u);
  EXPECT_TRUE(r.is_assigned(1, 10));
  EXPECT_FALSE(r.is_assigned(2, 11));

  const auto workers = r.workers_of(10);
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0], 1);
  EXPECT_EQ(workers[1], 2);
}

TEST(AllocationResult, EmptyResult) {
  const AllocationResult r;
  EXPECT_EQ(r.requester_utility(), 0u);
  EXPECT_EQ(r.total_payment(), 0.0);
  EXPECT_TRUE(r.workers_of(1).empty());
}

TEST(Checks, BudgetFeasibility) {
  AllocationResult r;
  r.assignments = {{1, 10, 5.0}};
  AuctionConfig config;
  config.budget = 5.0;
  EXPECT_EQ(check_budget_feasibility(r, config), "");
  config.budget = 4.9;
  EXPECT_NE(check_budget_feasibility(r, config), "");
  // No payment is feasible against a budget that is not a number.
  for (const double budget : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity()}) {
    config.budget = budget;
    EXPECT_NE(check_budget_feasibility(r, config), "") << budget;
  }
}

TEST(Checks, FrequencyFeasibility) {
  AllocationResult r;
  r.assignments = {{1, 10, 1.0}, {1, 11, 1.0}};
  std::vector<WorkerProfile> workers{{1, {1.0, 2}, 3.0}};
  EXPECT_EQ(check_frequency_feasibility(r, workers), "");
  workers[0].bid.frequency = 1;
  EXPECT_NE(check_frequency_feasibility(r, workers), "");
}

TEST(Checks, FrequencyUnknownWorker) {
  AllocationResult r;
  r.assignments = {{42, 10, 1.0}};
  std::vector<WorkerProfile> workers{{1, {1.0, 2}, 3.0}};
  EXPECT_NE(check_frequency_feasibility(r, workers), "");
}

TEST(Checks, TaskSatisfaction) {
  AllocationResult r;
  r.assignments = {{1, 10, 1.0}, {2, 10, 1.0}};
  r.selected_tasks = {10};
  std::vector<WorkerProfile> workers{{1, {1.0, 2}, 3.0}, {2, {1.0, 2}, 3.5}};
  std::vector<Task> tasks{{10, 6.0}};
  EXPECT_EQ(check_task_satisfaction(r, workers, tasks), "");
  tasks[0].quality_threshold = 7.0;
  EXPECT_NE(check_task_satisfaction(r, workers, tasks), "");
}

TEST(Checks, TaskSatisfactionUnknownIds) {
  AllocationResult r;
  r.selected_tasks = {99};
  std::vector<WorkerProfile> workers;
  std::vector<Task> tasks{{10, 6.0}};
  EXPECT_NE(check_task_satisfaction(r, workers, tasks), "");
}

}  // namespace
}  // namespace melody::auction
