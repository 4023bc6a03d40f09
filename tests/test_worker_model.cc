#include "sim/worker_model.h"

#include <gtest/gtest.h>

#include <vector>

namespace melody::sim {
namespace {

TrajectoryStream stable_stream(int length) {
  TrajectoryConfig config;
  config.kind = TrajectoryKind::kStable;
  config.start_level = 5.0;
  return TrajectoryStream(config, length, util::Rng(3));
}

SimWorker make_worker() { return SimWorker(7, {1.5, 3}, stable_stream(3)); }

TEST(SimWorkerTest, LatentQualityIndexingAndClamping) {
  TrajectoryConfig config;
  config.kind = TrajectoryKind::kStable;
  config.start_level = 5.0;
  util::Rng rng(3);
  const std::vector<double> expected = generate_trajectory(config, 3, rng);
  SimWorker w = make_worker();
  EXPECT_EQ(w.trajectory().length(), 3);
  for (int run = 1; run <= 3; ++run) {
    w.advance_to(run);
    EXPECT_EQ(w.latent_quality(), expected[static_cast<std::size_t>(run - 1)]);
  }
  // Past the length the last value is held.
  w.advance_to(99);
  EXPECT_EQ(w.latent_quality(), expected.back());
  EXPECT_EQ(w.trajectory().run(), 3);
}

TEST(SimWorkerTest, EmptyTrajectory) {
  SimWorker w(1, {1.0, 1}, TrajectoryStream());
  w.advance_to(5);
  EXPECT_EQ(w.latent_quality(), 0.0);
  EXPECT_EQ(w.trajectory().length(), 0);
}

TEST(SimWorkerTest, TruthfulPolicyReturnsTrueBid) {
  util::Rng rng(1);
  const SimWorker w = make_worker();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(w.submitted_bid(BidPolicy::truthful(), rng), w.true_bid());
  }
}

TEST(SimWorkerTest, AlwaysHigherCostPolicy) {
  util::Rng rng(2);
  const SimWorker w = make_worker();
  BidPolicy policy;
  policy.cheat_probability = 1.0;
  policy.direction = MisreportDirection::kHigher;
  policy.cheat_cost = true;
  for (int i = 0; i < 100; ++i) {
    const auto bid = w.submitted_bid(policy, rng);
    EXPECT_GE(bid.cost, w.true_bid().cost);
    EXPECT_LE(bid.cost, w.true_bid().cost * 1.5 + 1e-12);
    EXPECT_EQ(bid.frequency, w.true_bid().frequency);
  }
}

TEST(SimWorkerTest, AlwaysLowerCostPolicyStaysPositive) {
  util::Rng rng(3);
  const SimWorker w(1, {0.02, 1}, stable_stream(1));
  BidPolicy policy;
  policy.cheat_probability = 1.0;
  policy.direction = MisreportDirection::kLower;
  policy.cost_magnitude = 1.0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(w.submitted_bid(policy, rng).cost, 0.01);
  }
}

TEST(SimWorkerTest, FrequencyCheatingBounds) {
  util::Rng rng(4);
  const SimWorker w = make_worker();
  BidPolicy policy;
  policy.cheat_probability = 1.0;
  policy.cheat_cost = false;
  policy.cheat_frequency = true;
  policy.direction = MisreportDirection::kRandom;
  policy.frequency_magnitude = 2;
  bool saw_change = false;
  for (int i = 0; i < 200; ++i) {
    const auto bid = w.submitted_bid(policy, rng);
    EXPECT_GE(bid.frequency, 1);
    EXPECT_LE(bid.frequency, 5);
    EXPECT_EQ(bid.cost, w.true_bid().cost);
    if (bid.frequency != w.true_bid().frequency) saw_change = true;
  }
  EXPECT_TRUE(saw_change);
}

TEST(SimWorkerTest, CheatProbabilityRespected) {
  util::Rng rng(5);
  const SimWorker w = make_worker();
  BidPolicy policy;
  policy.cheat_probability = 0.25;
  policy.direction = MisreportDirection::kHigher;
  int cheated = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (w.submitted_bid(policy, rng).cost != w.true_bid().cost) ++cheated;
  }
  EXPECT_NEAR(cheated / static_cast<double>(n), 0.25, 0.02);
}

TEST(SimWorkerTest, UtilityFromAllocation) {
  const SimWorker w = make_worker();  // true cost 1.5
  auction::AllocationResult result;
  result.assignments = {{7, 0, 2.0}, {7, 1, 1.8}, {9, 0, 3.0}};
  // Two tasks at payment 3.8 total, cost 2 * 1.5 = 3.
  EXPECT_NEAR(w.utility(result), 0.8, 1e-12);
}

TEST(SimWorkerTest, UtilityCapsAtTrueFrequency) {
  // True frequency 3: a fourth assignment earns nothing (the worker cannot
  // complete it), matching the paper's Fig. 7b semantics.
  const SimWorker w = make_worker();  // true cost 1.5, frequency 3
  auction::AllocationResult result;
  result.assignments = {{7, 0, 2.0}, {7, 1, 2.0}, {7, 2, 2.0}, {7, 3, 9.0}};
  EXPECT_NEAR(w.utility(result), 3 * (2.0 - 1.5), 1e-12);
}

TEST(SimWorkerTest, UtilityZeroWhenUnassigned) {
  const SimWorker w = make_worker();
  auction::AllocationResult result;
  result.assignments = {{9, 0, 3.0}};
  EXPECT_EQ(w.utility(result), 0.0);
}

TEST(Population, SampleRespectsRangesAndCount) {
  util::Rng rng(6);
  WorkerPopulationConfig config;
  config.count = 200;
  config.cost_min = 1.0;
  config.cost_max = 2.0;
  config.frequency_min = 1;
  config.frequency_max = 5;
  config.horizon = 50;
  const auto workers = sample_population(config, rng);
  ASSERT_EQ(workers.size(), 200u);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    EXPECT_EQ(workers[i].id(), static_cast<auction::WorkerId>(i));
    EXPECT_GE(workers[i].true_bid().cost, 1.0);
    EXPECT_LE(workers[i].true_bid().cost, 2.0);
    EXPECT_GE(workers[i].true_bid().frequency, 1);
    EXPECT_LE(workers[i].true_bid().frequency, 5);
    EXPECT_EQ(workers[i].trajectory().length(), 50);
    TrajectoryStream stream = workers[i].trajectory();
    for (int r = 1; r <= 50; ++r) {
      stream.advance();
      EXPECT_GE(stream.value(), 1.0);
      EXPECT_LE(stream.value(), 10.0);
    }
  }
}

TEST(Population, DeterministicForSeed) {
  WorkerPopulationConfig config;
  config.count = 20;
  config.horizon = 10;
  util::Rng a(42), b(42);
  const auto pa = sample_population(config, a);
  const auto pb = sample_population(config, b);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].true_bid(), pb[i].true_bid());
    EXPECT_EQ(pa[i].trajectory().state(), pb[i].trajectory().state());
  }
  EXPECT_EQ(a.state(), b.state());
}

}  // namespace
}  // namespace melody::sim
