// Numerical verification of the Theorem-3 update equations against
// brute-force Bayesian integration, plus filter behaviour tests.
#include "lds/kalman.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace melody::lds {
namespace {

/// Brute-force posterior over q given prior N(m, K) and i.i.d. scores with
/// emission variance eta, by numeric integration on a fine grid.
Gaussian brute_force_posterior(const Gaussian& prior,
                               const std::vector<double>& scores, double eta) {
  const double lo = prior.mean - 30.0;
  const double hi = prior.mean + 30.0;
  const int steps = 200000;
  const double dx = (hi - lo) / steps;
  double z = 0.0, m1 = 0.0, m2 = 0.0;
  const Gaussian emission_template{0.0, eta};
  for (int i = 0; i < steps; ++i) {
    const double q = lo + (i + 0.5) * dx;
    double logw = prior.log_pdf(q);
    for (double s : scores) logw += Gaussian{q, eta}.log_pdf(s);
    const double w = std::exp(logw);
    z += w;
    m1 += w * q;
    m2 += w * q * q;
  }
  (void)emission_template;
  const double mean = m1 / z;
  return {mean, m2 / z - mean * mean};
}

TEST(Predict, MatchesTransitionMoments) {
  const LdsParams params{0.9, 0.5, 1.0};
  const Gaussian posterior{4.0, 2.0};
  const Gaussian prior = predict(posterior, params);
  EXPECT_DOUBLE_EQ(prior.mean, 0.9 * 4.0);
  EXPECT_DOUBLE_EQ(prior.var, 0.81 * 2.0 + 0.5);
}

TEST(Predict, IdentityTransitionAddsOnlyNoise) {
  const LdsParams params{1.0, 0.3, 1.0};
  const Gaussian posterior{5.5, 2.25};
  const Gaussian prior = predict(posterior, params);
  EXPECT_DOUBLE_EQ(prior.mean, 5.5);
  EXPECT_DOUBLE_EQ(prior.var, 2.55);
}

TEST(Correct, EmptyScoresReturnPrior) {
  const LdsParams params{1.0, 0.3, 1.0};
  const Gaussian prior{5.0, 2.0};
  const Gaussian posterior = correct(prior, ScoreSet{}, params);
  EXPECT_EQ(posterior, prior);
}

TEST(Correct, Theorem3ClosedForm) {
  // Direct check of Eqs. (17)-(18): with K = a^2 sigma + gamma,
  // mu-hat = (a eta mu + K S) / (N K + eta), sigma-hat = K eta / (N K + eta).
  const LdsParams params{0.95, 0.4, 2.0};
  const Gaussian previous{6.0, 1.5};
  ScoreSet scores;
  scores.add(5.0);
  scores.add(7.0);
  scores.add(6.5);
  const Gaussian posterior = filter_step(previous, scores, params);
  const double k = 0.95 * 0.95 * 1.5 + 0.4;
  const double n = 3.0, s = 18.5;
  EXPECT_NEAR(posterior.mean,
              (params.a * params.eta * previous.mean + k * s) /
                  (n * k + params.eta),
              1e-12);
  EXPECT_NEAR(posterior.var, k * params.eta / (n * k + params.eta), 1e-12);
}

TEST(Correct, MatchesBruteForceIntegrationSingleScore) {
  const LdsParams params{1.0, 1.0, 2.0};
  const Gaussian prior{5.0, 1.5};
  ScoreSet set;
  set.add(7.0);
  const Gaussian posterior = correct(prior, set, params);
  const Gaussian brute = brute_force_posterior(prior, {7.0}, params.eta);
  EXPECT_NEAR(posterior.mean, brute.mean, 1e-4);
  EXPECT_NEAR(posterior.var, brute.var, 1e-4);
}

TEST(Correct, MatchesBruteForceIntegrationManyScores) {
  const LdsParams params{1.0, 1.0, 3.0};
  const Gaussian prior{4.0, 2.25};
  const std::vector<double> scores{3.0, 5.5, 4.2, 6.1, 2.8};
  const Gaussian posterior = correct(prior, ScoreSet::from(scores), params);
  const Gaussian brute = brute_force_posterior(prior, scores, params.eta);
  EXPECT_NEAR(posterior.mean, brute.mean, 1e-4);
  EXPECT_NEAR(posterior.var, brute.var, 1e-4);
}

TEST(Correct, MoreScoresShrinkVariance) {
  const LdsParams params{1.0, 0.5, 2.0};
  const Gaussian prior{5.0, 2.0};
  double previous_var = prior.var;
  ScoreSet set;
  for (int n = 1; n <= 10; ++n) {
    set.add(5.0);
    const Gaussian posterior = correct(prior, set, params);
    EXPECT_LT(posterior.var, previous_var);
    previous_var = posterior.var;
  }
}

TEST(Correct, PosteriorMeanBetweenPriorAndScoreMean) {
  const LdsParams params{1.0, 0.5, 2.0};
  const Gaussian prior{3.0, 1.0};
  ScoreSet set;
  set.add(9.0);
  const Gaussian posterior = correct(prior, set, params);
  EXPECT_GT(posterior.mean, prior.mean);
  EXPECT_LT(posterior.mean, 9.0);
}

TEST(LogMarginal, EmptySetIsZero) {
  const LdsParams params{1.0, 1.0, 1.0};
  EXPECT_EQ(log_marginal({5.0, 1.0}, ScoreSet{}, params), 0.0);
}

TEST(LogMarginal, SingleScoreMatchesConvolution) {
  // For one score, p(s) = N(s; m, K + eta) exactly.
  const LdsParams params{1.0, 1.0, 2.0};
  const Gaussian prior{5.0, 1.5};
  ScoreSet set;
  set.add(6.3);
  const Gaussian convolution{prior.mean, prior.var + params.eta};
  EXPECT_NEAR(log_marginal(prior, set, params), convolution.log_pdf(6.3), 1e-10);
}

TEST(LogMarginal, MatchesBruteForceIntegration) {
  const LdsParams params{1.0, 1.0, 3.0};
  const Gaussian prior{5.0, 2.0};
  const std::vector<double> scores{4.0, 6.0, 5.5};
  // Brute-force: integrate prior * prod emission over q.
  const double lo = -25.0, hi = 35.0;
  const int steps = 400000;
  const double dx = (hi - lo) / steps;
  double z = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double q = lo + (i + 0.5) * dx;
    double logw = prior.log_pdf(q);
    for (double s : scores) logw += Gaussian{q, params.eta}.log_pdf(s);
    z += std::exp(logw);
  }
  EXPECT_NEAR(log_marginal(prior, ScoreSet::from(scores), params),
              std::log(z * dx), 1e-5);
}

TEST(Filter, EmptyHistory) {
  const LdsParams params{1.0, 1.0, 1.0};
  const FilterResult r = filter({5.5, 2.25}, {}, params);
  EXPECT_TRUE(r.priors.empty());
  EXPECT_TRUE(r.posteriors.empty());
  EXPECT_EQ(r.log_likelihood, 0.0);
}

TEST(Filter, ChainsStepsConsistently) {
  const LdsParams params{0.98, 0.2, 2.0};
  const Gaussian init{5.5, 2.25};
  ScoreHistory history;
  util::Rng rng(99);
  for (int r = 0; r < 20; ++r) {
    ScoreSet set;
    const int n = static_cast<int>(rng.uniform_int(0, 4));
    for (int i = 0; i < n; ++i) set.add(rng.uniform(1.0, 10.0));
    history.push_back(set);
  }
  const FilterResult result = filter(init, history, params);
  ASSERT_EQ(result.posteriors.size(), history.size());
  Gaussian posterior = init;
  for (std::size_t t = 0; t < history.size(); ++t) {
    posterior = filter_step(posterior, history[t], params);
    EXPECT_NEAR(result.posteriors[t].mean, posterior.mean, 1e-12);
    EXPECT_NEAR(result.posteriors[t].var, posterior.var, 1e-12);
    EXPECT_NEAR(result.priors[t].mean,
                params.a * (t == 0 ? init.mean : result.posteriors[t - 1].mean),
                1e-12);
  }
}

TEST(Filter, TracksConstantSignal) {
  const LdsParams params{1.0, 0.01, 1.0};
  const Gaussian init{2.0, 4.0};
  ScoreHistory history;
  for (int r = 0; r < 50; ++r) {
    ScoreSet set;
    for (int i = 0; i < 3; ++i) set.add(8.0);
    history.push_back(set);
  }
  const FilterResult result = filter(init, history, params);
  EXPECT_NEAR(result.posteriors.back().mean, 8.0, 0.05);
}

TEST(Filter, UnobservedRunsGrowVariance) {
  const LdsParams params{1.0, 0.5, 1.0};
  const Gaussian init{5.0, 1.0};
  ScoreHistory history(5);  // all empty
  const FilterResult result = filter(init, history, params);
  for (std::size_t t = 1; t < result.posteriors.size(); ++t) {
    EXPECT_GT(result.posteriors[t].var, result.posteriors[t - 1].var);
  }
  EXPECT_NEAR(result.posteriors.back().var, 1.0 + 5 * 0.5, 1e-12);
}

/// Sum of the per-run log marginals along the filter, by the textbook
/// formula, independently of filter().
double sum_of_log_marginals(const Gaussian& init, const ScoreHistory& history,
                            const LdsParams& params) {
  double total = 0.0;
  Gaussian posterior = init;
  for (const ScoreSet& scores : history) {
    const Gaussian prior = predict(posterior, params);
    total += log_marginal(prior, scores, params);
    posterior = correct(prior, scores, params);
  }
  return total;
}

TEST(Filter, LogLikelihoodIsTheSumOfLogMarginals) {
  // Mixed histories (empty runs, single scores, several scores) at 20 and
  // 1000 runs. At 1000 runs the product of the per-run innovation
  // variances n*K + eta leaves the double range in both directions: above
  // 1e300 with eta = 400, below 1e-300 with eta = 1e-3.
  struct Case {
    LdsParams params;
    int runs;
    int max_scores;
  };
  for (const Case& c : {Case{{0.98, 0.2, 2.0}, 20, 4},
                        Case{{1.0, 0.05, 400.0}, 1000, 6},
                        Case{{1.0, 1e-4, 1e-3}, 1000, 3},
                        Case{{0.95, 0.5, 4.0}, 1000, 1}}) {
    util::Rng rng(static_cast<std::uint64_t>(c.runs) + c.max_scores);
    ScoreHistory history;
    double q = 5.5;
    for (int r = 0; r < c.runs; ++r) {
      q = c.params.a * q + rng.normal(0.0, std::sqrt(c.params.gamma));
      ScoreSet set;
      const int n = static_cast<int>(rng.uniform_int(0, c.max_scores));
      for (int i = 0; i < n; ++i) {
        set.add(q + rng.normal(0.0, std::sqrt(c.params.eta)));
      }
      history.push_back(set);
    }
    const Gaussian init{5.5, 2.25};
    const double expected = sum_of_log_marginals(init, history, c.params);
    const double got = filter(init, history, c.params).log_likelihood;
    ASSERT_TRUE(std::isfinite(got)) << "eta " << c.params.eta;
    EXPECT_NEAR(got, expected, 1e-12 * std::abs(expected))
        << "eta " << c.params.eta << " runs " << c.runs;
    EXPECT_EQ(log_likelihood(init, history, c.params), got);
  }
}

TEST(Params, ValidationRejectsNonPositiveVariances) {
  EXPECT_THROW((LdsParams{1.0, 0.0, 1.0}).validate(), std::domain_error);
  EXPECT_THROW((LdsParams{1.0, 1.0, -2.0}).validate(), std::domain_error);
  EXPECT_NO_THROW((LdsParams{1.0, 1.0, 1.0}).validate());
}

TEST(Filter, RejectsInvalidInitialPosterior) {
  const LdsParams params{1.0, 1.0, 1.0};
  EXPECT_THROW(filter({5.0, 0.0}, {}, params), std::domain_error);
}

// Parameterized sweep: Theorem 3 must agree with brute-force integration
// across a grid of (a, gamma, eta) regimes.
struct KalmanCase {
  double a, gamma, eta;
};

class KalmanSweep : public ::testing::TestWithParam<KalmanCase> {};

TEST_P(KalmanSweep, ClosedFormMatchesBruteForce) {
  const auto& c = GetParam();
  const LdsParams params{c.a, c.gamma, c.eta};
  const Gaussian previous{5.0, 1.8};
  const std::vector<double> scores{4.1, 6.7, 5.0, 5.9};
  const Gaussian prior = predict(previous, params);
  const Gaussian posterior = correct(prior, ScoreSet::from(scores), params);
  const Gaussian brute = brute_force_posterior(prior, scores, params.eta);
  EXPECT_NEAR(posterior.mean, brute.mean, 1e-3);
  EXPECT_NEAR(posterior.var, brute.var, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, KalmanSweep,
    ::testing::Values(KalmanCase{1.0, 0.1, 1.0}, KalmanCase{0.9, 1.0, 2.0},
                      KalmanCase{1.05, 0.5, 5.0}, KalmanCase{0.5, 2.0, 0.5},
                      KalmanCase{1.0, 5.0, 10.0}, KalmanCase{0.99, 0.01, 9.0}));

}  // namespace
}  // namespace melody::lds
