// Mobile crowdsensing market with worker churn.
//
// A municipality buys air-quality readings every hour. Sensing workers
// join the platform over time (newcomers start from the preset prior) and
// their measurement quality drifts as phone sensors age. The example runs
// the full simulation Platform with two different quality-updating methods
// — the paper's STATIC baseline and MELODY's LDS tracker — on identical
// populations and prints the side-by-side outcome, a miniature of the
// Fig. 9 experiment with churn added.
//
//   ./sensing_market
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/melody_estimator.h"
#include "estimators/static_estimator.h"
#include "sim/metrics.h"
#include "sim/platform.h"

namespace {

using namespace melody;

sim::LongTermScenario market_scenario() {
  sim::LongTermScenario s;
  s.num_workers = 50;      // initial worker pool
  s.num_tasks = 40;        // sensing cells per hour
  s.runs = 240;            // ten days of hourly rounds
  s.budget = 160.0;
  s.mix = {0.35, 0.35, 0.2, 0.1};
  return s;
}

struct Outcome {
  sim::MetricSummary summary;
  std::size_t final_pool = 0;
};

Outcome run_market(estimators::QualityEstimator& estimator) {
  const auto scenario = market_scenario();
  auction::MelodyAuction mechanism;
  util::Rng rng(2024);  // identical population for both estimators
  sim::Platform platform(
      scenario, mechanism, estimator,
      sim::sample_population(scenario.population_config(), rng), 77);

  util::Rng churn_rng(31);
  std::vector<sim::RunRecord> records;
  auction::WorkerId next_id = 1000;
  for (int run = 0; run < scenario.runs; ++run) {
    // Churn: roughly one new sensing worker joins every ~8 hours.
    if (churn_rng.bernoulli(0.125)) {
      const auto kind = sim::sample_kind(scenario.mix, churn_rng);
      const auto trajectory =
          sim::sample_config(kind, scenario.runs, churn_rng);
      sim::TrajectoryStream stream(trajectory, scenario.runs, churn_rng);
      churn_rng.discard_normals(static_cast<std::uint64_t>(scenario.runs));
      const auction::Bid bid{churn_rng.uniform(1.0, 2.0),
                             static_cast<int>(churn_rng.uniform_int(1, 5))};
      platform.add_worker(sim::SimWorker(next_id++, bid, std::move(stream)));
    }
    records.push_back(platform.step());
  }
  return {sim::summarize_after(records, 40), platform.worker_state().size()};
}

}  // namespace

int main() {
  const auto scenario = market_scenario();

  estimators::StaticEstimator static_estimator(scenario.initial_mu, 50);
  const Outcome static_outcome = run_market(static_estimator);

  estimators::MelodyEstimatorConfig tracker;
  tracker.initial_posterior = {scenario.initial_mu, scenario.initial_sigma};
  tracker.reestimation_period = scenario.reestimation_period;
  estimators::MelodyEstimator melody_estimator(tracker);
  const Outcome melody_outcome = run_market(melody_estimator);

  std::printf("ten-day sensing market, hourly auctions, worker churn "
              "(final pool: %zu workers)\n\n",
              melody_outcome.final_pool);
  std::printf("%-28s %12s %12s\n", "", "STATIC", "MELODY");
  std::printf("%-28s %12.1f %12.1f\n", "satisfied cells per hour",
              static_outcome.summary.mean_true_utility,
              melody_outcome.summary.mean_true_utility);
  std::printf("%-28s %12.3f %12.3f\n", "quality tracking error",
              static_outcome.summary.mean_estimation_error,
              melody_outcome.summary.mean_estimation_error);
  std::printf("%-28s %12.1f %12.1f\n", "hourly payout",
              static_outcome.summary.mean_total_payment,
              melody_outcome.summary.mean_total_payment);
  std::printf("\nthe LDS tracker keeps following drifting sensors and "
              "folds newcomers in from the shared prior, so the same "
              "budget satisfies more sensing cells.\n");
  return 0;
}
