// Numerical robustness of the LDS core under extreme but plausible inputs:
// very large score sets, near-degenerate variances, long chains, and large
// quality magnitudes. The platform must never emit NaNs or blow up.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "lds/em.h"
#include "lds/kalman.h"
#include "lds/smoother.h"
#include "util/rng.h"

namespace melody::lds {
namespace {

bool finite(const Gaussian& g) {
  return std::isfinite(g.mean) && std::isfinite(g.var) && g.var > 0.0;
}

TEST(Numerics, HugeScoreSetConvergesToSampleMean) {
  // One million scores in a single run: the posterior collapses onto the
  // sample mean with variance ~ eta / N.
  const LdsParams params{1.0, 0.5, 4.0};
  ScoreSet set;
  set.count = 1'000'000;
  set.sum = 7.25 * 1'000'000;
  set.sum_squares = (4.0 + 7.25 * 7.25) * 1'000'000;
  const Gaussian posterior = filter_step({5.5, 2.25}, set, params);
  ASSERT_TRUE(finite(posterior));
  EXPECT_NEAR(posterior.mean, 7.25, 1e-4);
  EXPECT_LT(posterior.var, 1e-4);
}

TEST(Numerics, TinyVariancesStayPositive) {
  const LdsParams params{1.0, 1e-9, 1e-9};
  Gaussian posterior{5.0, 1e-9};
  ScoreSet set;
  set.add(5.0);
  for (int r = 0; r < 1000; ++r) {
    posterior = filter_step(posterior, set, params);
    ASSERT_TRUE(finite(posterior)) << "run " << r;
  }
}

TEST(Numerics, HugeVariancesStayFinite) {
  const LdsParams params{1.0, 1e12, 1e12};
  Gaussian posterior{5.0, 1e12};
  ScoreSet set;
  set.add(5.0);
  for (int r = 0; r < 100; ++r) {
    posterior = filter_step(posterior, set, params);
    ASSERT_TRUE(finite(posterior));
  }
}

TEST(Numerics, VeryLongFilterChainIsStable) {
  const LdsParams params{0.999, 0.1, 3.0};
  util::Rng rng(1);
  Gaussian posterior{5.5, 2.25};
  for (int r = 0; r < 100'000; ++r) {
    ScoreSet set;
    if (r % 3 != 0) set.add(rng.uniform(1.0, 10.0));
    posterior = filter_step(posterior, set, params);
  }
  ASSERT_TRUE(finite(posterior));
  // Steady-state variance is bounded by the one-step-observed fixed point.
  EXPECT_LT(posterior.var, 5.0);
  EXPECT_GT(posterior.mean, 0.0);
  EXPECT_LT(posterior.mean, 11.0);
}

TEST(Numerics, LogMarginalExtremeOutlier) {
  // A score 1000 sigma away: log-likelihood is hugely negative but finite.
  const LdsParams params{1.0, 0.5, 1.0};
  ScoreSet set;
  set.add(1000.0);
  const double logml = log_marginal({5.0, 1.0}, set, params);
  EXPECT_TRUE(std::isfinite(logml));
  EXPECT_LT(logml, -1000.0);
}

TEST(Numerics, SmootherOnLongSparseHistory) {
  const LdsParams params{0.995, 0.2, 2.0};
  util::Rng rng(2);
  ScoreHistory history;
  for (int r = 0; r < 5000; ++r) {
    ScoreSet set;
    if (rng.bernoulli(0.2)) set.add(rng.uniform(1.0, 10.0));
    history.push_back(set);
  }
  const SmootherResult result = smooth({5.5, 2.25}, history, params);
  for (std::size_t t = 0; t <= history.size(); t += 500) {
    ASSERT_TRUE(finite(result.smoothed[t])) << "t=" << t;
  }
}

TEST(Numerics, EmOnLongHistoryStaysFinite) {
  util::Rng rng(3);
  const LdsParams truth{0.999, 0.05, 4.0};
  ScoreHistory history;
  double q = 5.5;
  for (int r = 0; r < 3000; ++r) {
    q = truth.a * q + rng.normal(0.0, std::sqrt(truth.gamma));
    ScoreSet set;
    for (int s = 0; s < 2; ++s) {
      set.add(q + rng.normal(0.0, std::sqrt(truth.eta)));
    }
    history.push_back(set);
  }
  EmOptions options;
  options.max_iterations = 10;
  const EmResult result =
      fit_lds({5.5, 2.25}, history, LdsParams{1.0, 1.0, 1.0}, options);
  EXPECT_TRUE(std::isfinite(result.params.a));
  EXPECT_TRUE(std::isfinite(result.params.gamma));
  EXPECT_TRUE(std::isfinite(result.params.eta));
  EXPECT_TRUE(
      std::isfinite(log_likelihood({5.5, 2.25}, history, result.params)));
}

TEST(Numerics, NegativeQualityScaleWorksThroughout) {
  // Nothing in the LDS math assumes positive quality: a chain centered at
  // -50 must filter and smooth identically (shift invariance).
  const LdsParams params{1.0, 0.5, 2.0};
  ScoreSet at_positive, at_negative;
  at_positive.add(6.0);
  at_positive.add(7.0);
  at_negative.add(6.0 - 56.0);
  at_negative.add(7.0 - 56.0);
  const Gaussian pos = filter_step({5.0, 2.0}, at_positive, params);
  const Gaussian neg = filter_step({5.0 - 56.0, 2.0}, at_negative, params);
  EXPECT_NEAR(pos.mean - 56.0, neg.mean, 1e-9);
  EXPECT_NEAR(pos.var, neg.var, 1e-12);
}

TEST(Numerics, TransitionCoefficientZero) {
  // a = 0: the prior forgets everything; posterior driven by scores alone.
  const LdsParams params{0.0, 1.0, 1.0};
  ScoreSet set;
  set.add(8.0);
  const Gaussian posterior = filter_step({3.0, 0.5}, set, params);
  ASSERT_TRUE(finite(posterior));
  // Prior is N(0, 1); posterior mean between 0 and 8.
  EXPECT_GT(posterior.mean, 0.0);
  EXPECT_LT(posterior.mean, 8.0);
}

TEST(Numerics, NegativeTransitionCoefficient) {
  const LdsParams params{-0.9, 0.5, 1.0};
  const Gaussian prior = predict({4.0, 1.0}, params);
  EXPECT_DOUBLE_EQ(prior.mean, -3.6);
  EXPECT_DOUBLE_EQ(prior.var, 0.81 + 0.5);
}

}  // namespace
}  // namespace melody::lds
