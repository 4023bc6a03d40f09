// EM lane bit-identity. The production estimator fits the workers that
// come due in a run in groups of up to lds::kEmLanes equal-length
// histories; the frozen reference (perf::reference::AosKalmanChain) fits
// one worker at a time with the pre-kernel EM code. Their snapshots must
// match byte for byte at 1, 2 and 8 threads when many workers come due in
// one run, when history lengths are mixed (late joins, sparse
// participation, advancing idle runs, a sliding window), when a group is
// narrower than four, and when some lanes converge before the iteration
// cap while others run to it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "estimators/melody_estimator.h"
#include "obs/metrics.h"
#include "perf/reference.h"
#include "util/binio.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace melody::estimators {
namespace {

constexpr int kWorkers = 203;  // not a multiple of 4: a narrow last group
constexpr int kRuns = 40;

/// Three kinds of worker: exactly constant scores every run (EM stops on
/// the tolerance), dense noisy scores (EM runs to the cap), and sparse
/// noisy scores (idle runs give the histories mixed lengths).
lds::ScoreSet scores_for(int worker, int run) {
  util::Rng rng(util::derive_stream(0xE3A, static_cast<std::uint64_t>(worker),
                                    static_cast<std::uint64_t>(run)));
  lds::ScoreSet scores;
  const double latent = 2.0 + worker % 7;
  switch (worker % 3) {
    case 0:
      for (int i = 0; i < 3; ++i) scores.add(6.0);
      break;
    case 1: {
      const int count = 1 + static_cast<int>(rng.uniform_int(0, 3));
      for (int i = 0; i < count; ++i) {
        scores.add(std::clamp(rng.normal(latent, 1.5), 1.0, 10.0));
      }
      break;
    }
    default:
      if (rng.bernoulli(0.4)) {
        scores.add(std::clamp(rng.normal(latent, 1.5), 1.0, 10.0));
      }
      break;
  }
  return scores;
}

/// Worker w joins at run 1 + 3 * (w % 5), so equal-period workers reach
/// different history lengths in the same run.
int join_run(int worker) { return 1 + 3 * (worker % 5); }

std::string reference_snapshot(const MelodyEstimatorConfig& config) {
  perf::reference::AosKalmanChain chain(config);
  for (int run = 1; run <= kRuns; ++run) {
    for (int w = 0; w < kWorkers; ++w) {
      if (join_run(w) == run) chain.register_worker(w);
    }
    for (int w = 0; w < kWorkers; ++w) {
      if (join_run(w) <= run) chain.observe(w, scores_for(w, run));
    }
  }
  util::binio::Writer out;
  chain.save(out);
  return out.take();
}

/// The production estimator through observe_run, in registration order on
/// even runs and reversed (the slot-lookup path) on odd ones.
std::string production_snapshot(const MelodyEstimatorConfig& config,
                                int threads) {
  util::set_shared_thread_count(threads);
  MelodyEstimator estimator(config);
  std::vector<auction::WorkerId> ids;
  std::vector<lds::ScoreSet> scores;
  for (int run = 1; run <= kRuns; ++run) {
    for (int w = 0; w < kWorkers; ++w) {
      if (join_run(w) == run) {
        estimator.register_worker(w);
        ids.push_back(w);
      }
    }
    std::vector<auction::WorkerId> order = ids;
    if (run % 2 == 1) std::reverse(order.begin(), order.end());
    scores.clear();
    for (auction::WorkerId w : order) scores.push_back(scores_for(w, run));
    estimator.observe_run(order, scores);
  }
  util::set_shared_thread_count(1);
  std::ostringstream out;
  estimator.save(out);
  return out.str();
}

void expect_lanes_match_reference(const MelodyEstimatorConfig& config) {
  const std::string expected = reference_snapshot(config);
  for (const int threads : {1, 2, 8}) {
    EXPECT_EQ(production_snapshot(config, threads), expected)
        << "threads=" << threads;
  }
}

TEST(EmLanes, ParticipationIndexedChainsMatchReference) {
  MelodyEstimatorConfig config;
  config.reestimation_period = 5;
  expect_lanes_match_reference(config);
}

TEST(EmLanes, AdvancingIdleRunsMatchReference) {
  MelodyEstimatorConfig config;
  config.reestimation_period = 4;
  config.advance_on_empty_runs = true;
  expect_lanes_match_reference(config);
}

TEST(EmLanes, SlidingWindowMatchesReference) {
  MelodyEstimatorConfig config;
  config.reestimation_period = 3;
  config.max_history = 12;
  expect_lanes_match_reference(config);
}

TEST(EmLanes, EarlyConvergedLanesBesideCappedOnesMatchReference) {
  MelodyEstimatorConfig config;
  config.reestimation_period = 5;
  config.em_options.tolerance = 1e-3;
  config.refilter_after_em = false;

  // The mix must really hold both kinds of lane, or the mask goes
  // untested: count the fits the cap stopped among all fits.
  obs::Counter& runs = obs::registry().counter("estimator/em_runs");
  obs::Counter& cap_hits = obs::registry().counter("estimator/em_cap_hits");
  const std::uint64_t runs_before = runs.value();
  const std::uint64_t caps_before = cap_hits.value();
  {
    obs::ScopedEnable on(true);
    EXPECT_EQ(production_snapshot(config, 1), reference_snapshot(config));
  }
  const std::uint64_t fits = runs.value() - runs_before;
  const std::uint64_t capped = cap_hits.value() - caps_before;
  EXPECT_GT(capped, 0u);
  EXPECT_LT(capped, fits);

  expect_lanes_match_reference(config);
}

}  // namespace
}  // namespace melody::estimators
