// The load-bearing property of the parallel execution layer: running the
// long-term scenario (the Fig. 9 pipeline at reduced scale) with 1, 2, and
// 8 threads produces bit-identical RunRecord sequences and bit-identical
// estimator state versus the serial path. Per-(worker, run) RNG streams
// plus index-addressed writes are what make this hold; see DESIGN.md,
// "Parallel execution model".
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "auction/melody_auction.h"
#include "estimators/melody_estimator.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "sim/parallel_sweep.h"
#include "sim/platform.h"
#include "util/thread_pool.h"

namespace melody::sim {
namespace {

LongTermScenario fig9_scenario() {
  LongTermScenario s;  // Table 4 shape, reduced scale
  s.num_workers = 80;
  s.num_tasks = 60;
  s.runs = 40;  // covers several EM re-estimation periods (T = 10)
  s.budget = 250.0;
  return s;
}

estimators::MelodyEstimatorConfig tracker_config(const LongTermScenario& s) {
  estimators::MelodyEstimatorConfig config;
  config.initial_posterior = {s.initial_mu, s.initial_sigma};
  config.reestimation_period = s.reestimation_period;
  return config;
}

struct PipelineOutput {
  std::vector<RunRecord> records;
  std::string estimator_snapshot;  // full per-worker posteriors and params
};

PipelineOutput run_pipeline(int threads, std::uint64_t seed) {
  util::set_shared_thread_count(threads);
  const auto scenario = fig9_scenario();
  auction::MelodyAuction mechanism;
  estimators::MelodyEstimator estimator(tracker_config(scenario));
  util::Rng population_rng(seed);
  Platform platform(scenario, mechanism, estimator,
                    sample_population(scenario.population_config(),
                                      population_rng),
                    seed + 1);
  PipelineOutput out;
  out.records = platform.run_all();
  std::ostringstream snapshot;
  estimator.save(snapshot);  // 17-digit text: any bit difference shows up
  out.estimator_snapshot = snapshot.str();
  util::set_shared_thread_count(1);
  return out;
}

void expect_identical(const RunRecord& a, const RunRecord& b, int run) {
  EXPECT_EQ(a.run, b.run) << "run " << run;
  EXPECT_EQ(a.estimated_utility, b.estimated_utility) << "run " << run;
  EXPECT_EQ(a.true_utility, b.true_utility) << "run " << run;
  // Exact equality on doubles is the point: not "close", identical.
  EXPECT_EQ(a.estimation_error, b.estimation_error) << "run " << run;
  EXPECT_EQ(a.total_payment, b.total_payment) << "run " << run;
  EXPECT_EQ(a.assignments, b.assignments) << "run " << run;
  EXPECT_EQ(a.qualified_workers, b.qualified_workers) << "run " << run;
}

TEST(ParallelDeterminism, PlatformBitIdenticalAcross1And2And8Threads) {
  const auto serial = run_pipeline(1, 2017);
  for (int threads : {2, 8}) {
    const auto parallel = run_pipeline(threads, 2017);
    ASSERT_EQ(parallel.records.size(), serial.records.size());
    for (std::size_t r = 0; r < serial.records.size(); ++r) {
      expect_identical(serial.records[r], parallel.records[r],
                       static_cast<int>(r + 1));
    }
    EXPECT_EQ(parallel.estimator_snapshot, serial.estimator_snapshot)
        << "estimator posteriors diverged at " << threads << " threads";
  }
}

// A population above the per-run trajectory advance's grain, so the pool
// steps the workers' streams in parallel; the checkpoint bytes carry every
// stream's drift and generator, so any cross-thread slip shows.
TEST(ParallelDeterminism, TrajectoryAdvanceBitIdenticalAcrossThreads) {
  LongTermScenario scenario = fig9_scenario();
  scenario.num_workers = 3000;
  scenario.num_tasks = 200;
  scenario.runs = 4;
  scenario.budget = 600.0;
  const auto run = [&scenario](int threads) {
    util::set_shared_thread_count(threads);
    auction::MelodyAuction mechanism;
    estimators::MelodyEstimator estimator(tracker_config(scenario));
    util::Rng population_rng(99);
    Platform platform(scenario, mechanism, estimator,
                      sample_population(scenario.population_config(),
                                        population_rng),
                      100);
    PipelineOutput out;
    out.records = platform.run_all();
    std::ostringstream checkpoint;
    platform.save(checkpoint);
    out.estimator_snapshot = checkpoint.str();
    util::set_shared_thread_count(1);
    return out;
  };
  const PipelineOutput serial = run(1);
  for (int threads : {2, 8}) {
    const PipelineOutput parallel = run(threads);
    ASSERT_EQ(parallel.records.size(), serial.records.size());
    for (std::size_t r = 0; r < serial.records.size(); ++r) {
      expect_identical(serial.records[r], parallel.records[r],
                       static_cast<int>(r + 1));
    }
    EXPECT_EQ(parallel.estimator_snapshot, serial.estimator_snapshot)
        << "checkpoint diverged at " << threads << " threads";
  }
}

TEST(ParallelDeterminism, RepeatedParallelRunsAgreeWithThemselves) {
  const auto first = run_pipeline(8, 99);
  const auto second = run_pipeline(8, 99);
  ASSERT_EQ(first.records.size(), second.records.size());
  for (std::size_t r = 0; r < first.records.size(); ++r) {
    expect_identical(first.records[r], second.records[r],
                     static_cast<int>(r + 1));
  }
  EXPECT_EQ(first.estimator_snapshot, second.estimator_snapshot);
}

SweepResult run_sweep(int threads) {
  util::set_shared_thread_count(threads);
  auto scenario = fig9_scenario();
  scenario.runs = 15;
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6};
  ParallelSweep sweep;
  sweep.add_seed_grid(
      "det", scenario, seeds,
      [] { return std::make_unique<auction::MelodyAuction>(); },
      [scenario] {
        return std::make_unique<estimators::MelodyEstimator>(
            tracker_config(scenario));
      });
  auto result = sweep.run();
  util::set_shared_thread_count(1);
  return result;
}

TEST(ParallelDeterminism, SweepReplicasAndMergedStatsBitIdentical) {
  const auto serial = run_sweep(1);
  ASSERT_EQ(serial.replicas.size(), 6u);
  for (int threads : {2, 8}) {
    const auto parallel = run_sweep(threads);
    ASSERT_EQ(parallel.replicas.size(), serial.replicas.size());
    for (std::size_t j = 0; j < serial.replicas.size(); ++j) {
      EXPECT_EQ(parallel.replicas[j].label, serial.replicas[j].label);
      ASSERT_EQ(parallel.replicas[j].records.size(),
                serial.replicas[j].records.size());
      for (std::size_t r = 0; r < serial.replicas[j].records.size(); ++r) {
        expect_identical(serial.replicas[j].records[r],
                         parallel.replicas[j].records[r],
                         static_cast<int>(r + 1));
      }
    }
    // The merged reduction is performed in job order after the barrier, so
    // even the floating-point accumulators must match exactly.
    EXPECT_EQ(parallel.merged.true_utility.mean(),
              serial.merged.true_utility.mean());
    EXPECT_EQ(parallel.merged.estimation_error.mean(),
              serial.merged.estimation_error.mean());
    EXPECT_EQ(parallel.merged.total_payment.sum(),
              serial.merged.total_payment.sum());
    EXPECT_EQ(parallel.merged.assignments.count(),
              serial.merged.assignments.count());
  }
}

// The obs cost contract's determinism half: metrics and events are
// write-only side channels, so a fully instrumented run (collection enabled
// AND a live JSON-lines sink) produces bit-identical records and estimator
// state versus the uninstrumented run, at every thread count.
TEST(ParallelDeterminism, MetricsSinkOnVersusOffBitIdentical) {
  const auto plain = run_pipeline(1, 2017);
  for (int threads : {1, 2, 8}) {
    std::ostringstream lines;
    obs::JsonLinesSink sink(lines);
    obs::ScopedSink scoped_sink(&sink);
    obs::ScopedEnable scoped_enable(true);
    const auto instrumented = run_pipeline(threads, 2017);
    ASSERT_EQ(instrumented.records.size(), plain.records.size());
    for (std::size_t r = 0; r < plain.records.size(); ++r) {
      expect_identical(plain.records[r], instrumented.records[r],
                       static_cast<int>(r + 1));
    }
    EXPECT_EQ(instrumented.estimator_snapshot, plain.estimator_snapshot)
        << "metrics collection perturbed the estimator at " << threads
        << " threads";
    // The sink actually saw the run (one platform/run event per run).
    EXPECT_GE(sink.lines_written(), plain.records.size());
  }
}

TEST(ParallelDeterminism, LargeAuctionRankingAndPricingMatchSerial) {
  // A 6000-worker market in ascending id order: the greedy core's rank
  // sort takes its radix path (N >= 2048). Compares every assignment and
  // payment across thread counts.
  SraScenario scenario;
  scenario.num_workers = 6000;
  scenario.num_tasks = 120;
  scenario.budget = 3000.0;
  // High thresholds -> ~30 winners per task.
  scenario.threshold = {80.0, 120.0};
  util::Rng rng(31);
  const auto workers = scenario.sample_workers(rng);
  const auto tasks = scenario.sample_tasks(rng);
  const auto config = scenario.auction_config();
  auction::MelodyAuction mechanism;

  util::set_shared_thread_count(1);
  const auto serial = mechanism.run({workers, tasks, config});
  for (int threads : {2, 8}) {
    util::set_shared_thread_count(threads);
    const auto parallel = mechanism.run({workers, tasks, config});
    util::set_shared_thread_count(1);
    ASSERT_EQ(parallel.assignments.size(), serial.assignments.size());
    for (std::size_t a = 0; a < serial.assignments.size(); ++a) {
      EXPECT_EQ(parallel.assignments[a].worker, serial.assignments[a].worker);
      EXPECT_EQ(parallel.assignments[a].task, serial.assignments[a].task);
      EXPECT_EQ(parallel.assignments[a].payment,
                serial.assignments[a].payment);
    }
    EXPECT_EQ(parallel.selected_tasks, serial.selected_tasks);
  }
}

}  // namespace
}  // namespace melody::sim
