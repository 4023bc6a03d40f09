#include "lds/kalman.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace melody::lds {

void LdsParams::validate() const {
  if (gamma <= 0.0) throw std::domain_error("LdsParams: gamma must be > 0");
  if (eta <= 0.0) throw std::domain_error("LdsParams: eta must be > 0");
}

double log_marginal(const Gaussian& prior, const ScoreSet& scores,
                    const LdsParams& params) {
  if (scores.empty()) return 0.0;
  // p(S) = integral over q of N(q; m, K) * prod_j N(s_j; q, eta).
  // Completing the square: with A = N/eta + 1/K, B = S/eta + m/K,
  // C = SS/eta + m^2/K,
  //   log p = -(N/2) log(2*pi*eta) - (1/2) log(K*A) + (B^2/A - C) / 2.
  const double k = prior.var;
  const double m = prior.mean;
  const double n = scores.count;
  const double a_term = n / params.eta + 1.0 / k;
  const double b_term = scores.sum / params.eta + m / k;
  const double c_term = scores.sum_squares / params.eta + m * m / k;
  return -0.5 * n * std::log(2.0 * std::numbers::pi * params.eta) -
         0.5 * std::log(k * a_term) + 0.5 * (b_term * b_term / a_term - c_term);
}

FilterResult filter(const Gaussian& initial_posterior,
                    std::span<const ScoreSet> history, const LdsParams& params) {
  params.validate();
  if (initial_posterior.var <= 0.0) {
    throw std::domain_error("filter: initial posterior variance must be > 0");
  }
  FilterResult result;
  result.priors.reserve(history.size());
  result.posteriors.reserve(history.size());
  Gaussian posterior = initial_posterior;
  LogLikelihoodAccumulator log_likelihood;
  for (const ScoreSet& scores : history) {
    const Gaussian prior = predict(posterior, params);
    log_likelihood.add(prior, scores, params);
    posterior = correct(prior, scores, params);
    result.priors.push_back(prior);
    result.posteriors.push_back(posterior);
  }
  result.log_likelihood =
      log_likelihood.total(HistoryTotals::of(history), params);
  return result;
}

double log_likelihood(const Gaussian& initial_posterior,
                      std::span<const ScoreSet> history,
                      const LdsParams& params) {
  return filter(initial_posterior, history, params).log_likelihood;
}

}  // namespace melody::lds
