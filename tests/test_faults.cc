// Fault-injection layer: plan parsing, graceful degradation of the
// estimators under missing/corrupted observations, and the determinism
// contract (bit-identical fault decisions at any thread count).
#include "sim/fault.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/melody_estimator.h"
#include "estimators/static_estimator.h"
#include "obs/metrics.h"
#include "sim/platform.h"
#include "util/thread_pool.h"

namespace melody::sim {
namespace {

LongTermScenario small_scenario() {
  LongTermScenario s;
  s.num_workers = 40;
  s.num_tasks = 30;
  s.runs = 20;
  s.budget = 120.0;
  return s;
}

estimators::MelodyEstimatorConfig tracker_config(const LongTermScenario& s) {
  estimators::MelodyEstimatorConfig config;
  config.initial_posterior = {s.initial_mu, s.initial_sigma};
  config.reestimation_period = s.reestimation_period;
  return config;
}

std::vector<RunRecord> run_with_plan(const LongTermScenario& scenario,
                                     const FaultPlan& plan,
                                     std::uint64_t seed) {
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(seed);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(), rng),
                    seed + 1);
  platform.set_fault_plan(plan);
  return platform.run_all();
}

TEST(FaultPlan, DefaultIsInactive) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.active());
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, ParseRoundTripsThroughDescribe) {
  const FaultPlan plan = FaultPlan::parse(
      "no-show=0.05,drop=0.1,corrupt=0.02,churn=0.1,churn-min=5,"
      "churn-max=50,salt=7");
  EXPECT_TRUE(plan.active());
  EXPECT_DOUBLE_EQ(plan.no_show_rate, 0.05);
  EXPECT_DOUBLE_EQ(plan.score_drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.score_corrupt_rate, 0.02);
  EXPECT_DOUBLE_EQ(plan.churn_rate, 0.1);
  EXPECT_EQ(plan.churn_min_absence, 5);
  EXPECT_EQ(plan.churn_max_absence, 50);
  EXPECT_EQ(plan.salt, 7u);
  EXPECT_EQ(FaultPlan::parse(plan.describe()), plan);
}

TEST(FaultPlan, DescribeRoundTripsASaltWithTheHighBitSet) {
  // parse reads the salt as a signed integer, so describe writes it so.
  const FaultPlan plan = FaultPlan::parse("no-show=0.1,salt=-1");
  EXPECT_EQ(plan.salt, ~std::uint64_t{0});
  EXPECT_EQ(FaultPlan::parse(plan.describe()), plan);
}

TEST(FaultPlan, ParseEmptySpecIsInactive) {
  EXPECT_FALSE(FaultPlan::parse("").active());
}

TEST(FaultPlan, ParseRejectsBadInput) {
  EXPECT_THROW(FaultPlan::parse("bogus=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("no-show=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("no-show=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("churn=0.1,churn-min=9,churn-max=3"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("churn-min=0"), std::invalid_argument);
}

TEST(FaultPlan, SetFaultPlanValidates) {
  const auto scenario = small_scenario();
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  Platform platform(scenario, mechanism, estimator, {}, 1);
  FaultPlan bad;
  bad.no_show_rate = 2.0;
  EXPECT_THROW(platform.set_fault_plan(bad), std::invalid_argument);
  EXPECT_FALSE(platform.fault_plan().active());
}

TEST(Faults, TotalNoShowMeansNoAssignmentsAndFrozenEstimates) {
  const auto scenario = small_scenario();
  auction::MelodyAuction mechanism;
  estimators::StaticEstimator estimator(scenario.initial_mu, 50);
  util::Rng rng(3);
  const auto workers =
      sample_population(scenario.population_config(), rng);
  Platform platform(scenario, mechanism, estimator, workers, 4);
  FaultPlan plan;
  plan.no_show_rate = 1.0;
  platform.set_fault_plan(plan);

  for (const auto& record : platform.run_all()) {
    EXPECT_EQ(record.assignments, 0u);
    EXPECT_EQ(record.qualified_workers, 0u);
    EXPECT_EQ(record.no_shows + record.churned_out,
              static_cast<std::size_t>(scenario.num_workers));
  }
  // Nobody was ever scored, so every estimate is still the initial one.
  for (const auto& w : workers) {
    EXPECT_DOUBLE_EQ(estimator.estimate(w.id()), scenario.initial_mu);
  }
}

TEST(Faults, TotalDropFreezesEstimatesButAuctionStillRuns) {
  const auto scenario = small_scenario();
  auction::MelodyAuction mechanism;
  estimators::StaticEstimator estimator(scenario.initial_mu, 50);
  util::Rng rng(5);
  const auto workers =
      sample_population(scenario.population_config(), rng);
  Platform platform(scenario, mechanism, estimator, workers, 6);
  FaultPlan plan;
  plan.score_drop_rate = 1.0;
  platform.set_fault_plan(plan);

  std::size_t total_assignments = 0;
  std::size_t total_dropped = 0;
  for (const auto& record : platform.run_all()) {
    EXPECT_EQ(record.no_shows, 0u);
    EXPECT_EQ(record.scores_corrupted, 0u);
    total_assignments += record.assignments;
    total_dropped += record.scores_dropped;
  }
  EXPECT_GT(total_assignments, 0u);
  EXPECT_GT(total_dropped, 0u);
  for (const auto& w : workers) {
    EXPECT_DOUBLE_EQ(estimator.estimate(w.id()), scenario.initial_mu);
  }
}

TEST(Faults, TotalCorruptionPinsScoresToExtremes) {
  ScoreModel model{3.0, 1.0, 10.0};
  FaultPlan plan;
  plan.score_corrupt_rate = 1.0;
  util::Rng stream(util::derive_stream(17, 1, 1));
  ScoreFaultCounts counts;
  const auto scores =
      generate_faulted_scores(plan, model, 5.0, 20, stream, 17, 1, 1, counts);
  ASSERT_EQ(scores.count, 20);
  EXPECT_EQ(counts.corrupted, 20);
  EXPECT_EQ(counts.dropped, 0);
  // Every score s is an extreme, i.e. a root of (s - min)(s - max) = 0, so
  // the sufficient statistics must satisfy
  //   sum_squares - (min + max) * sum + min * max * count = 0.
  EXPECT_NEAR(scores.sum_squares -
                  (model.min_score + model.max_score) * scores.sum +
                  model.min_score * model.max_score * scores.count,
              0.0, 1e-9);
  // With 20 corrupted scores both extremes almost surely appear: the count
  // of min-pinned scores recovered from the sum is strictly interior.
  const double min_pinned = (model.max_score * scores.count - scores.sum) /
                            (model.max_score - model.min_score);
  EXPECT_GT(min_pinned, 0.5);
  EXPECT_LT(min_pinned, 19.5);
}

TEST(Faults, ZeroRatePlanMatchesCleanScores) {
  // An inactive plan routed through the faulted generator must draw the
  // exact same base scores as the clean path.
  ScoreModel model{3.0, 1.0, 10.0};
  const FaultPlan plan;
  util::Rng a(util::derive_stream(23, 4, 2));
  util::Rng b(util::derive_stream(23, 4, 2));
  ScoreFaultCounts counts;
  const auto faulted =
      generate_faulted_scores(plan, model, 6.0, 7, a, 23, 4, 2, counts);
  const auto clean = generate_scores(model, 6.0, 7, b);
  EXPECT_EQ(faulted.count, clean.count);
  EXPECT_DOUBLE_EQ(faulted.sum, clean.sum);
  EXPECT_DOUBLE_EQ(faulted.sum_squares, clean.sum_squares);
  EXPECT_EQ(counts.dropped, 0);
  EXPECT_EQ(counts.corrupted, 0);
}

TEST(Faults, ChurnWindowIsContiguousAndBounded) {
  FaultPlan plan;
  plan.churn_rate = 1.0;  // every worker departs exactly once
  plan.churn_min_absence = 3;
  plan.churn_max_absence = 8;
  const int horizon = 60;
  for (auction::WorkerId worker = 0; worker < 25; ++worker) {
    int first_absent = -1;
    int last_absent = -1;
    int absent_count = 0;
    for (int run = 1; run <= horizon; ++run) {
      if (absence_for(plan, 99, worker, run, horizon) == Absence::kChurned) {
        if (first_absent < 0) first_absent = run;
        last_absent = run;
        ++absent_count;
      }
    }
    ASSERT_GT(absent_count, 0) << "worker " << worker;
    // Contiguous: the span between first and last absence is all absent.
    EXPECT_EQ(last_absent - first_absent + 1, absent_count);
    // Window length within bounds (may be truncated by the horizon).
    EXPECT_LE(absent_count, plan.churn_max_absence);
    if (last_absent < horizon) {
      EXPECT_GE(absent_count, plan.churn_min_absence);
    }
  }
}

TEST(Faults, AbsenceIsDeterministic) {
  FaultPlan plan;
  plan.no_show_rate = 0.3;
  plan.churn_rate = 0.5;
  for (int run = 1; run <= 40; ++run) {
    for (auction::WorkerId worker = 0; worker < 10; ++worker) {
      EXPECT_EQ(absence_for(plan, 7, worker, run, 40),
                absence_for(plan, 7, worker, run, 40));
    }
  }
}

TEST(Faults, RecordsIdenticalAcrossThreadCounts) {
  const auto scenario = small_scenario();
  FaultPlan plan;
  plan.no_show_rate = 0.1;
  plan.score_drop_rate = 0.15;
  plan.score_corrupt_rate = 0.05;
  plan.churn_rate = 0.2;
  plan.churn_min_absence = 2;
  plan.churn_max_absence = 6;

  util::set_shared_thread_count(1);
  const auto serial = run_with_plan(scenario, plan, 11);
  for (const int threads : {2, 8}) {
    util::set_shared_thread_count(threads);
    const auto parallel = run_with_plan(scenario, plan, 11);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "run " << i + 1 << " at "
                                        << threads << " threads";
    }
  }
  util::set_shared_thread_count(1);
}

TEST(Faults, MelodyEstimatorSurvivesGappedHistories) {
  // No-shows and drops create participation gaps; the MELODY tracker's
  // EM re-estimation must digest them without throwing and still produce
  // finite estimates for everyone.
  auto scenario = small_scenario();
  scenario.runs = 40;  // enough runs to trigger several re-estimations
  FaultPlan plan;
  plan.no_show_rate = 0.3;
  plan.score_drop_rate = 0.2;
  plan.churn_rate = 0.3;
  plan.churn_min_absence = 5;
  plan.churn_max_absence = 15;

  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng rng(13);
  const auto workers =
      sample_population(scenario.population_config(), rng);
  Platform platform(scenario, mechanism, estimator, workers, 14);
  platform.set_fault_plan(plan);
  const auto records = platform.run_all();
  ASSERT_EQ(records.size(), 40u);
  for (const auto& w : workers) {
    const double estimate = estimator.estimate(w.id());
    EXPECT_TRUE(std::isfinite(estimate)) << "worker " << w.id();
  }
}

TEST(Faults, ObsCountersMirrorRecordTallies) {
  const auto scenario = small_scenario();
  FaultPlan plan;
  plan.no_show_rate = 0.2;
  plan.score_drop_rate = 0.1;
  plan.score_corrupt_rate = 0.1;

  obs::set_enabled(true);
  obs::registry().reset();
  const auto records = run_with_plan(scenario, plan, 21);
  RunRecord totals;
  for (const auto& r : records) {
    totals.no_shows += r.no_shows;
    totals.scores_dropped += r.scores_dropped;
    totals.scores_corrupted += r.scores_corrupted;
  }
  EXPECT_GT(totals.no_shows, 0u);
  EXPECT_EQ(obs::registry().counter("faults/no_shows").value(),
            totals.no_shows);
  EXPECT_EQ(obs::registry().counter("faults/scores_dropped").value(),
            totals.scores_dropped);
  EXPECT_EQ(obs::registry().counter("faults/scores_corrupted").value(),
            totals.scores_corrupted);
  obs::set_enabled(false);
  obs::registry().reset();
}

TEST(Faults, FaultedRunStaysWithinPlatformInvariants) {
  const auto scenario = small_scenario();
  FaultPlan plan;
  plan.no_show_rate = 0.25;
  plan.score_corrupt_rate = 0.3;
  for (const auto& record : run_with_plan(scenario, plan, 31)) {
    EXPECT_LE(record.total_payment, scenario.budget + 1e-9);
    EXPECT_LE(record.no_shows + record.churned_out,
              static_cast<std::size_t>(scenario.num_workers));
    EXPECT_LE(record.qualified_workers,
              static_cast<std::size_t>(scenario.num_workers) -
                  record.no_shows - record.churned_out);
  }
}

}  // namespace
}  // namespace melody::sim
