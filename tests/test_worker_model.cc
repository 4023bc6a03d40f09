#include "sim/worker_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/worker_soa.h"

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

constexpr auction::Bid kTrueBid{1.5, 3};

TEST(SimWorkerTest, TruthfulPolicyReturnsTrueBid) {
  util::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(submitted_bid(kTrueBid, BidPolicy::truthful(), rng), kTrueBid);
  }
}

TEST(SimWorkerTest, AlwaysHigherCostPolicy) {
  util::Rng rng(2);
  BidPolicy policy;
  policy.cheat_probability = 1.0;
  policy.direction = MisreportDirection::kHigher;
  policy.cheat_cost = true;
  for (int i = 0; i < 100; ++i) {
    const auto bid = submitted_bid(kTrueBid, policy, rng);
    EXPECT_GE(bid.cost, kTrueBid.cost);
    EXPECT_LE(bid.cost, kTrueBid.cost * 1.5 + 1e-12);
    EXPECT_EQ(bid.frequency, kTrueBid.frequency);
  }
}

TEST(SimWorkerTest, AlwaysLowerCostPolicyStaysPositive) {
  util::Rng rng(3);
  BidPolicy policy;
  policy.cheat_probability = 1.0;
  policy.direction = MisreportDirection::kLower;
  policy.cost_magnitude = 1.0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(submitted_bid({0.02, 1}, policy, rng).cost, 0.01);
  }
}

TEST(SimWorkerTest, FrequencyCheatingBounds) {
  util::Rng rng(4);
  BidPolicy policy;
  policy.cheat_probability = 1.0;
  policy.cheat_cost = false;
  policy.cheat_frequency = true;
  policy.direction = MisreportDirection::kRandom;
  policy.frequency_magnitude = 2;
  bool saw_change = false;
  for (int i = 0; i < 200; ++i) {
    const auto bid = submitted_bid(kTrueBid, policy, rng);
    EXPECT_GE(bid.frequency, 1);
    EXPECT_LE(bid.frequency, 5);
    EXPECT_EQ(bid.cost, kTrueBid.cost);
    if (bid.frequency != kTrueBid.frequency) saw_change = true;
  }
  EXPECT_TRUE(saw_change);
}

TEST(SimWorkerTest, CheatProbabilityRespected) {
  util::Rng rng(5);
  BidPolicy policy;
  policy.cheat_probability = 0.25;
  policy.direction = MisreportDirection::kHigher;
  int cheated = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (submitted_bid(kTrueBid, policy, rng).cost != kTrueBid.cost) ++cheated;
  }
  EXPECT_NEAR(cheated / static_cast<double>(n), 0.25, 0.02);
}

/// Utilities of an outcome for the store {worker 7: make_worker(), worker
/// 9: true cost 2.5, frequency 1}; slot 0 is worker 7, slot 1 worker 9.
std::vector<double> store_utilities(const auction::AllocationResult& result) {
  WorkerStateSoA store;
  store.append(make_worker());  // true cost 1.5, frequency 3
  store.append(SimWorker(9, {2.5, 1}, stable_stream(3)));
  std::vector<double> out;
  store.utilities(result, out);
  return out;
}

TEST(SimWorkerTest, UtilityFromAllocation) {
  auction::AllocationResult result;
  result.assignments = {{7, 0, 2.0}, {7, 1, 1.8}, {9, 0, 3.0}};
  const std::vector<double> u = store_utilities(result);
  // Worker 7: two tasks at payment 3.8 total, cost 2 * 1.5 = 3.
  EXPECT_NEAR(u[0], 0.8, 1e-12);
  EXPECT_NEAR(u[1], 3.0 - 2.5, 1e-12);
}

TEST(SimWorkerTest, UtilityCapsAtTrueFrequency) {
  // True frequency 3: a fourth assignment earns nothing (the worker cannot
  // complete it), matching the paper's Fig. 7b semantics.
  auction::AllocationResult result;
  result.assignments = {{7, 0, 2.0}, {7, 1, 2.0}, {7, 2, 2.0}, {7, 3, 9.0},
                        {9, 0, 3.0}, {9, 1, 9.0}};
  const std::vector<double> u = store_utilities(result);
  EXPECT_NEAR(u[0], 3 * (2.0 - 1.5), 1e-12);
  EXPECT_NEAR(u[1], 3.0 - 2.5, 1e-12);
}

TEST(SimWorkerTest, UtilityZeroWhenUnassigned) {
  // Another worker's assignment, and one for an id the store does not hold.
  auction::AllocationResult result;
  result.assignments = {{9, 0, 3.0}, {42, 1, 5.0}};
  const std::vector<double> u = store_utilities(result);
  EXPECT_EQ(u[0], 0.0);
  EXPECT_NEAR(u[1], 0.5, 1e-12);
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
