// Rauch-Tung-Striebel smoother for the scalar LDS quality model, the
// E-step engine of Algorithm 2 (EM parameters learning).
//
// The smoothed sequence includes the platform-preset initial state q^0
// (index 0) followed by q^1..q^r (indices 1..r), so transition expectations
// E[q^t q^{t-1}] are defined for every t >= 1.
#pragma once

#include <span>
#include <vector>

#include "lds/gaussian.h"
#include "lds/kalman.h"

namespace melody::lds {

/// Smoothed posteriors p(q^t | S^1..S^r) and the cross-moments the EM
/// M-step needs. All vectors have length r + 1 (index 0 is q^0); the
/// cross-moment vectors' entry t refers to the pair (q^{t-1}, q^t), so
/// their index 0 is unused and kept at zero.
struct SmootherResult {
  std::vector<Gaussian> smoothed;       // p(q^t | all scores)
  std::vector<double> cross_covariance; // Cov(q^{t-1}, q^t | all scores)

  /// E[q^t] under the smoothed posterior.
  double mean(std::size_t t) const { return smoothed.at(t).mean; }
  /// E[(q^t)^2] = var + mean^2.
  double second_moment(std::size_t t) const {
    const Gaussian& g = smoothed.at(t);
    return g.var + g.mean * g.mean;
  }
  /// E[q^{t-1} q^t] = Cov + mean_{t-1} * mean_t, valid for t >= 1.
  double cross_moment(std::size_t t) const {
    return cross_covariance.at(t) +
           smoothed.at(t - 1).mean * smoothed.at(t).mean;
  }
};

/// Full forward-backward smoothing pass over a worker's history: the
/// E-step of the EM lane kernel (lds/em.cc) run on one lane.
SmootherResult smooth(const Gaussian& initial_posterior,
                      std::span<const ScoreSet> history,
                      const LdsParams& params);

}  // namespace melody::lds
