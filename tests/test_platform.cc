// Integration tests for the multi-run platform loop (Fig. 2 workflow).
#include "sim/platform.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "auction/melody_auction.h"
#include "auction/random_auction.h"
#include "estimators/melody_estimator.h"
#include "estimators/ml_cr_estimator.h"

namespace melody::sim {
namespace {

LongTermScenario small_scenario() {
  LongTermScenario s;
  s.num_workers = 40;
  s.num_tasks = 30;
  s.runs = 25;
  s.budget = 120.0;
  return s;
}

estimators::MelodyEstimatorConfig tracker_config(const LongTermScenario& s) {
  estimators::MelodyEstimatorConfig config;
  config.initial_posterior = {s.initial_mu, s.initial_sigma};
  config.reestimation_period = s.reestimation_period;
  return config;
}

TEST(Platform, RunsProduceConsistentRecords) {
  const auto scenario = small_scenario();
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(1);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(), rng), 99);

  const auto records = platform.run_all();
  ASSERT_EQ(records.size(), 25u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    EXPECT_EQ(r.run, static_cast<int>(i + 1));
    EXPECT_LE(r.true_utility, static_cast<std::size_t>(scenario.num_tasks));
    EXPECT_LE(r.total_payment, scenario.budget + 1e-9);
    EXPECT_GE(r.estimation_error, 0.0);
    EXPECT_LE(r.qualified_workers, static_cast<std::size_t>(scenario.num_workers));
  }
}

TEST(Platform, StepInvariantsEachRun) {
  const auto scenario = small_scenario();
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(2);
  auto workers = sample_population(scenario.population_config(), rng);
  Platform platform(scenario, mechanism, estimator, workers, 7);

  for (int r = 0; r < 10; ++r) {
    platform.step();
    const auto& result = platform.last_result();
    // Frequency feasibility against true bids (everyone is truthful here).
    for (const auto& w : workers) {
      EXPECT_LE(result.tasks_assigned_to(w.id()), w.true_bid().frequency);
    }
    EXPECT_LE(result.total_payment(), scenario.budget + 1e-9);
  }
}

TEST(Platform, WorkerTotalUtilityUnknownIdReturnsZero) {
  const auto scenario = small_scenario();
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(5);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(), rng), 17);

  // Before any step: every id (known or not) has earned nothing.
  EXPECT_EQ(platform.worker_total_utility(0), 0.0);
  EXPECT_EQ(platform.worker_total_utility(auction::WorkerId{999999}), 0.0);

  platform.step();
  // An id the platform has never seen still reports 0.0 and does not throw
  // (documented contract; contrast QualityEstimator::estimate).
  EXPECT_EQ(platform.worker_total_utility(auction::WorkerId{999999}), 0.0);
  // Querying an unknown id must not create an entry that shadows a later
  // legitimate read (the const map is never default-inserted into).
  EXPECT_EQ(platform.worker_total_utility(auction::WorkerId{999999}), 0.0);
}

TEST(Platform, DeterministicForSeed) {
  const auto scenario = small_scenario();
  util::Rng rng_a(3), rng_b(3);

  auction::MelodyAuction mech_a, mech_b;
  estimators::MelodyEstimator est_a(tracker_config(scenario));
  estimators::MelodyEstimator est_b(tracker_config(scenario));
  Platform a(scenario, mech_a, est_a,
             sample_population(scenario.population_config(), rng_a), 42);
  Platform b(scenario, mech_b, est_b,
             sample_population(scenario.population_config(), rng_b), 42);
  const auto ra = a.run_all();
  const auto rb = b.run_all();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].true_utility, rb[i].true_utility);
    EXPECT_DOUBLE_EQ(ra[i].total_payment, rb[i].total_payment);
    EXPECT_DOUBLE_EQ(ra[i].estimation_error, rb[i].estimation_error);
  }
}

TEST(Platform, TruthfulWorkersAccrueNonNegativeUtility) {
  const auto scenario = small_scenario();
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(4);
  auto workers = sample_population(scenario.population_config(), rng);
  Platform platform(scenario, mechanism, estimator, workers, 5);
  platform.run_all();
  for (const auto& w : workers) {
    EXPECT_GE(platform.worker_total_utility(w.id()), -1e-9);
  }
}

TEST(Platform, EstimationErrorDropsFromInitialGuess) {
  // After enough observed runs the tracker must beat the run-1 error,
  // where every estimate is still the prior mean.
  const auto scenario = small_scenario();
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(5);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(), rng), 17);
  const auto records = platform.run_all();
  const double first = records.front().estimation_error;
  const double last = records.back().estimation_error;
  EXPECT_LT(last, first);
}

TEST(Platform, NewcomerIsRegisteredAndParticipates) {
  auto scenario = small_scenario();
  scenario.runs = 10;
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(6);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(), rng), 23);
  platform.step();

  TrajectoryConfig traj;
  traj.kind = TrajectoryKind::kStable;
  traj.start_level = 9.0;
  SimWorker newcomer(1000, {1.0, 5},
                     TrajectoryStream(traj, scenario.runs, rng));
  platform.add_worker(std::move(newcomer));
  EXPECT_NO_THROW(platform.step());
  EXPECT_EQ(platform.worker_state().size(), 41u);
}

TEST(Platform, AddWorkerWithAKnownIdThrows) {
  auto scenario = small_scenario();
  scenario.runs = 10;
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(6);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(), rng), 23);
  platform.step();
  std::ostringstream before;
  platform.save(before);

  // Worker 2 already bids; a second profile under his id must not join.
  SimWorker twin(2, {1.0, 5}, TrajectoryStream(TrajectoryConfig{},
                                               scenario.runs, rng));
  EXPECT_THROW(platform.add_worker(std::move(twin)), std::invalid_argument);
  EXPECT_EQ(platform.worker_state().size(), 40u);
  EXPECT_EQ(platform.worker_state().slot_of(2), 2u);
  std::ostringstream after;
  platform.save(after);
  EXPECT_EQ(after.str(), before.str());
  EXPECT_NO_THROW(platform.step());
}

TEST(Platform, ConstructorRefusesARepeatedId) {
  const auto scenario = small_scenario();
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(6);
  std::vector<SimWorker> workers =
      sample_population(scenario.population_config(), rng);
  workers.push_back(workers[2]);
  EXPECT_THROW(Platform(scenario, mechanism, estimator, std::move(workers), 23),
               std::invalid_argument);
}

TEST(Platform, PolicyOverrideChangesBids) {
  auto scenario = small_scenario();
  scenario.runs = 5;
  auction::MelodyAuction mechanism;
  estimators::MlCurrentRunEstimator estimator(scenario.initial_mu);
  util::Rng rng(7);
  auto workers = sample_population(scenario.population_config(), rng);
  Platform platform(scenario, mechanism, estimator, workers, 31);

  // A true cost at the very top of [C_m, C_M]: any upward perturbation
  // leaves the qualification band, independent of the drawn magnitude.
  TrajectoryConfig traj;
  traj.kind = TrajectoryKind::kStable;
  traj.start_level = 8.0;
  SimWorker overbidder(500, {2.0, 3},
                       TrajectoryStream(traj, scenario.runs, rng));
  platform.add_worker(overbidder);

  BidPolicy always_overbid;
  always_overbid.cheat_probability = 1.0;
  always_overbid.direction = MisreportDirection::kHigher;
  always_overbid.cost_magnitude = 10.0;  // bid far outside [C_m, C_M]
  platform.set_policy(overbidder.id(), always_overbid);
  platform.run_all();
  // The always-overbidding worker is disqualified every run: zero utility.
  EXPECT_EQ(platform.worker_total_utility(overbidder.id()), 0.0);
}

TEST(Platform, WorksWithRandomMechanism) {
  // The platform is mechanism-agnostic: the RANDOM baseline must satisfy
  // the same per-run invariants.
  auto scenario = small_scenario();
  scenario.runs = 15;
  auction::RandomAuction mechanism(99);
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(9);
  auto workers = sample_population(scenario.population_config(), rng);
  Platform platform(scenario, mechanism, estimator, workers, 10);
  for (const auto& record : platform.run_all()) {
    EXPECT_LE(record.total_payment, scenario.budget + 1e-9);
    EXPECT_LE(record.true_utility, static_cast<std::size_t>(scenario.num_tasks));
  }
  for (const auto& w : workers) {
    EXPECT_GE(platform.worker_total_utility(w.id()), -1e-9);
  }
}

TEST(Platform, ZeroBudgetYieldsZeroEverything) {
  auto scenario = small_scenario();
  scenario.budget = 0.0;
  scenario.runs = 5;
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(11);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(), rng), 12);
  for (const auto& record : platform.run_all()) {
    EXPECT_EQ(record.estimated_utility, 0u);
    EXPECT_EQ(record.true_utility, 0u);
    EXPECT_EQ(record.total_payment, 0.0);
    EXPECT_EQ(record.assignments, 0u);
  }
}

TEST(Platform, EmptyPopulationIsHarmless) {
  auto scenario = small_scenario();
  scenario.runs = 3;
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  Platform platform(scenario, mechanism, estimator, {}, 13);
  for (const auto& record : platform.run_all()) {
    EXPECT_EQ(record.true_utility, 0u);
    EXPECT_EQ(record.qualified_workers, 0u);
    EXPECT_EQ(record.estimation_error, 0.0);
  }
}

TEST(Platform, CurrentRunAdvances) {
  const auto scenario = small_scenario();
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(8);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(), rng), 3);
  EXPECT_EQ(platform.current_run(), 1);
  platform.step();
  EXPECT_EQ(platform.current_run(), 2);
}

}  // namespace
}  // namespace melody::sim
