// EM learner (Algorithm 2) tests: likelihood monotonicity, parameter
// recovery on synthetic LDS data, M-step properties, and degenerate-input
// guards.
#include "lds/em.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "lds/smoother.h"
#include "util/rng.h"

namespace melody::lds {
namespace {

/// Generate a synthetic worker history from ground-truth LDS parameters.
ScoreHistory synthesize(const LdsParams& truth, const Gaussian& init, int runs,
                        int scores_per_run, util::Rng& rng) {
  ScoreHistory history;
  double q = rng.normal(init.mean, init.stddev());
  for (int r = 0; r < runs; ++r) {
    q = truth.a * q + rng.normal(0.0, std::sqrt(truth.gamma));
    ScoreSet set;
    for (int s = 0; s < scores_per_run; ++s) {
      set.add(q + rng.normal(0.0, std::sqrt(truth.eta)));
    }
    history.push_back(set);
  }
  return history;
}

TEST(EmFit, EmptyHistoryReturnsInitialParams) {
  const LdsParams init_params{0.9, 0.5, 2.0};
  const EmResult result = fit_lds({5.5, 2.25}, {}, init_params);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.params, init_params);
}

TEST(EmFit, LogLikelihoodMonotoneNonDecreasing) {
  util::Rng rng(17);
  const LdsParams truth{0.99, 0.3, 4.0};
  const Gaussian init{5.5, 2.25};
  const ScoreHistory history = synthesize(truth, init, 80, 3, rng);

  // A fit capped at k iterations (tolerance 0 forces all k) ends on the
  // parameters of iteration k, so the sweep k = 1..40 walks the EM path.
  EmOptions options;
  options.tolerance = 0.0;
  double previous = 0.0;
  for (int k = 1; k <= 40; ++k) {
    options.max_iterations = k;
    const EmResult fit =
        fit_lds(init, history, LdsParams{1.0, 1.0, 1.0}, options);
    ASSERT_EQ(fit.iterations, k);
    const double ll = log_likelihood(init, history, fit.params);
    if (k > 1) {
      EXPECT_GE(ll, previous - 1e-6)
          << "EM likelihood decreased at iteration " << k;
    }
    previous = ll;
  }
}

TEST(EmFit, ImprovesLikelihoodOverInitialGuess) {
  util::Rng rng(23);
  const LdsParams truth{0.98, 0.5, 2.0};
  const Gaussian init{5.5, 2.25};
  const ScoreHistory history = synthesize(truth, init, 120, 4, rng);
  const LdsParams guess{1.0, 5.0, 10.0};
  const double before = log_likelihood(init, history, guess);
  const EmResult result = fit_lds(init, history, guess);
  const double after = log_likelihood(init, history, result.params);
  EXPECT_GT(after, before);
}

TEST(EmFit, RecoversEmissionVariance) {
  // eta is the best-identified parameter (many scores per run).
  util::Rng rng(31);
  const LdsParams truth{1.0, 0.05, 4.0};
  const Gaussian init{5.5, 1.0};
  const ScoreHistory history = synthesize(truth, init, 300, 8, rng);
  const EmResult result = fit_lds(init, history, LdsParams{1.0, 1.0, 1.0});
  EXPECT_NEAR(result.params.eta, truth.eta, 1.0);
}

TEST(EmFit, RecoversTransitionCoefficientSign) {
  util::Rng rng(37);
  const LdsParams truth{0.95, 0.2, 1.0};
  const Gaussian init{5.0, 1.0};
  const ScoreHistory history = synthesize(truth, init, 400, 5, rng);
  const EmResult result = fit_lds(init, history, LdsParams{1.0, 1.0, 1.0});
  EXPECT_GT(result.params.a, 0.8);
  EXPECT_LT(result.params.a, 1.1);
}

TEST(EmFit, VarianceFloorsAreRespected) {
  // Constant scores in every run: the unconstrained eta MLE is ~0; the
  // floor must keep the model proper.
  ScoreHistory history;
  for (int r = 0; r < 20; ++r) {
    ScoreSet set;
    for (int i = 0; i < 3; ++i) set.add(5.0);
    history.push_back(set);
  }
  EmOptions options;
  options.min_variance = 1e-4;
  const EmResult result =
      fit_lds({5.0, 1.0}, history, LdsParams{1.0, 1.0, 1.0}, options);
  EXPECT_GE(result.params.eta, options.min_variance);
  EXPECT_GE(result.params.gamma, options.min_variance);
}

TEST(EmFit, TransitionClampApplies) {
  // A history that rises explosively would push a above the clamp.
  ScoreHistory history;
  double level = 1.0;
  for (int r = 0; r < 15; ++r) {
    level *= 6.0;
    ScoreSet set;
    set.add(level);
    history.push_back(set);
  }
  EmOptions options;
  options.max_abs_a = 2.0;
  const EmResult result =
      fit_lds({1.0, 1.0}, history, LdsParams{1.0, 1.0, 1.0}, options);
  EXPECT_LE(std::abs(result.params.a), 2.0 + 1e-12);
}

TEST(EmFit, ConvergesBeforeMaxIterations) {
  util::Rng rng(41);
  const ScoreHistory history =
      synthesize(LdsParams{1.0, 0.2, 1.0}, {5.0, 1.0}, 100, 3, rng);
  EmOptions options;
  options.max_iterations = 200;
  options.tolerance = 1e-8;
  const EmResult result =
      fit_lds({5.0, 1.0}, history, LdsParams{1.0, 1.0, 1.0}, options);
  EXPECT_LT(result.iterations, 200);
}

TEST(EmFit, SingleRunHistoryDoesNotCrash) {
  ScoreHistory history;
  history.push_back(ScoreSet::from(std::vector<double>{4.0, 6.0}));
  const EmResult result = fit_lds({5.0, 1.0}, history, LdsParams{1.0, 1.0, 1.0});
  EXPECT_GT(result.params.gamma, 0.0);
  EXPECT_GT(result.params.eta, 0.0);
}

TEST(EmFit, HistoryWithEmptyRunsHandled) {
  util::Rng rng(43);
  ScoreHistory history = synthesize(LdsParams{1.0, 0.3, 2.0}, {5.0, 1.0}, 60,
                                    2, rng);
  for (std::size_t t = 0; t < history.size(); t += 3) history[t] = ScoreSet{};
  const EmResult result = fit_lds({5.0, 1.0}, history, LdsParams{1.0, 1.0, 1.0});
  EXPECT_GT(result.params.eta, 0.0);
  EXPECT_TRUE(
      std::isfinite(log_likelihood({5.0, 1.0}, history, result.params)));
}

bool same_bits(const LdsParams& x, const LdsParams& y) {
  return std::bit_cast<std::uint64_t>(x.a) == std::bit_cast<std::uint64_t>(y.a) &&
         std::bit_cast<std::uint64_t>(x.gamma) ==
             std::bit_cast<std::uint64_t>(y.gamma) &&
         std::bit_cast<std::uint64_t>(x.eta) == std::bit_cast<std::uint64_t>(y.eta);
}

TEST(EmLanes, EachLaneMatchesItsLoneFit) {
  // Four equal-length histories, one of them constant so its lane stops on
  // the tolerance while the others run on: every lane, at every group
  // width, must reproduce its lone fit bit for bit.
  util::Rng rng(47);
  std::vector<ScoreHistory> histories;
  histories.push_back(synthesize({1.0, 0.2, 1.0}, {5.0, 1.0}, 30, 3, rng));
  histories.push_back(synthesize({0.9, 0.5, 4.0}, {5.5, 2.25}, 30, 1, rng));
  ScoreHistory constant(30);
  for (ScoreSet& set : constant) set.add(6.0);
  histories.push_back(constant);
  histories.push_back(synthesize({1.0, 0.05, 9.0}, {4.0, 2.0}, 30, 2, rng));
  for (std::size_t t = 0; t < 30; t += 4) histories[3][t] = ScoreSet{};

  EmOptions options;
  options.tolerance = 1e-4;
  std::vector<EmLane> lanes;
  std::vector<EmResult> alone;
  for (std::size_t k = 0; k < histories.size(); ++k) {
    const EmLane lane{{5.0 + k, 1.0 + k}, histories[k],
                      LdsParams{1.0, 1.0 + k, 2.0 + k}};
    lanes.push_back(lane);
    alone.push_back(fit_lds(lane.initial_posterior, lane.history,
                            lane.initial_params, options));
  }
  ASSERT_TRUE(alone[2].converged);
  ASSERT_FALSE(alone[0].converged && alone[1].converged && alone[3].converged);
  for (std::size_t width = 1; width <= kEmLanes; ++width) {
    std::vector<EmResult> together(width);
    fit_lds_lanes({lanes.data(), width}, together, options);
    for (std::size_t k = 0; k < width; ++k) {
      EXPECT_TRUE(same_bits(together[k].params, alone[k].params))
          << "width " << width << " lane " << k;
      EXPECT_EQ(together[k].iterations, alone[k].iterations);
      EXPECT_EQ(together[k].converged, alone[k].converged);
    }
  }
}

TEST(EmLanes, RejectsBadGroups) {
  const ScoreHistory longer(5);
  const ScoreHistory shorter(4);
  std::vector<EmLane> lanes(2);
  lanes[0].history = longer;
  lanes[1].history = shorter;
  std::vector<EmResult> results(2);
  EXPECT_THROW(fit_lds_lanes(lanes, results), std::invalid_argument);
  lanes.assign(kEmLanes + 1, EmLane{});
  results.resize(kEmLanes + 1);
  EXPECT_THROW(fit_lds_lanes(lanes, results), std::invalid_argument);
  EXPECT_THROW(fit_lds_lanes({}, {}), std::invalid_argument);
}

TEST(MStep, ClosedFormOnDeterministicMoments) {
  // Hand-crafted moments: q_t = 2, 4 with zero variances; one run with one
  // score of 5 at t=1... use a 1-run history for full control.
  ScoreHistory history;
  history.push_back(ScoreSet::from(std::vector<double>{5.0}));
  SmootherResult moments;
  moments.smoothed = {Gaussian{2.0, 0.0}, Gaussian{4.0, 0.0}};
  moments.cross_covariance = {0.0, 0.0};
  EmOptions options;
  options.min_variance = 1e-9;
  options.max_abs_a = 10.0;
  const LdsParams params = m_step({2.0, 1.0}, history, moments, options);
  // a* = E[q1 q0] / E[q0^2] = 8 / 4 = 2.
  EXPECT_NEAR(params.a, 2.0, 1e-12);
  // gamma* = E[(q1 - a q0)^2] = (4 - 2*2)^2 = 0 -> floored.
  EXPECT_NEAR(params.gamma, options.min_variance, 1e-12);
  // eta* = (5 - q1)^2 = 1.
  EXPECT_NEAR(params.eta, 1.0, 1e-12);
}

// Parameter-recovery oracle: histories drawn from a known theta, fitted
// from the estimator's starting point {1, 1, 9}. The fit must explain the
// data at least as well as the truth does (EM climbs the likelihood; the
// MLE beats the truth on its own sample), and the recovered theta must
// close on the truth as the history grows: the bounds are several
// standard errors wide at 100 runs and shrink like 1/sqrt(length).
TEST(EmOracle, RecoversKnownParametersAsHistoryGrows) {
  const LdsParams truth{0.97, 0.3, 2.0};
  const Gaussian init{5.5, 2.25};
  const LdsParams start{1.0, 1.0, 9.0};
  for (const int length : {100, 400, 1600}) {
    const double scale = std::sqrt(100.0 / length);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      util::Rng rng(util::derive_stream(0x0AC1E, seed,
                                        static_cast<std::uint64_t>(length)));
      const ScoreHistory history = synthesize(truth, init, length, 3, rng);
      const EmResult fit = fit_lds(init, history, start);
      const double fitted = log_likelihood(init, history, fit.params);
      const double oracle = log_likelihood(init, history, truth);
      SCOPED_TRACE(::testing::Message() << "length " << length << " seed "
                                        << seed << " iterations "
                                        << fit.iterations);
      EXPECT_GE(fitted, oracle - 1.0);
      EXPECT_NEAR(fit.params.a, truth.a, 0.1 * scale);
      EXPECT_NEAR(fit.params.gamma, truth.gamma, 0.25 * scale);
      EXPECT_NEAR(fit.params.eta, truth.eta, 0.8 * scale);
    }
  }
}

// Parameterized recovery sweep over ground-truth regimes.
struct EmCase {
  double a, gamma, eta;
  std::uint64_t seed;
};

class EmRecovery : public ::testing::TestWithParam<EmCase> {};

TEST_P(EmRecovery, FittedModelBeatsMispecifiedBaseline) {
  const auto& c = GetParam();
  util::Rng rng(c.seed);
  const LdsParams truth{c.a, c.gamma, c.eta};
  const Gaussian init{5.5, 2.25};
  const ScoreHistory history = synthesize(truth, init, 200, 4, rng);
  const EmResult fit = fit_lds(init, history, LdsParams{1.0, 1.0, 1.0});
  const double fitted = log_likelihood(init, history, fit.params);
  // A deliberately mis-specified model must not beat the EM fit.
  const double mispecified =
      log_likelihood(init, history, LdsParams{1.0, 10.0, 0.1});
  EXPECT_GE(fitted, mispecified);
  // And the fit should be close to the truth's likelihood.
  const double oracle = log_likelihood(init, history, truth);
  EXPECT_GE(fitted, oracle - 30.0);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, EmRecovery,
    ::testing::Values(EmCase{1.0, 0.1, 1.0, 101}, EmCase{0.95, 0.5, 4.0, 102},
                      EmCase{1.0, 0.02, 9.0, 103}, EmCase{0.9, 1.0, 0.5, 104},
                      EmCase{1.01, 0.2, 2.0, 105}));

}  // namespace
}  // namespace melody::lds
