// Forward inference for the scalar LDS quality model:
//   transition  q^r ~ N(a q^{r-1}, gamma)        (Eq. 12)
//   emission    s_j ~ N(q^r, eta), i.i.d. in-run (Eq. 13)
//
// The per-run posterior update is exactly Theorem 3 (Eqs. 17-18); the
// next-run estimated quality is Eq. 19 (mu^{r+1} = a * mu-hat^r).
#pragma once

#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "lds/gaussian.h"

namespace melody::lds {

/// Per-worker LDS hyper-parameters theta = {a, gamma, eta}.
struct LdsParams {
  double a = 1.0;       // transition coefficient
  double gamma = 1.0;   // transition variance (> 0)
  double eta = 1.0;     // emission variance (> 0)

  bool operator==(const LdsParams&) const = default;
  /// Throws std::domain_error if a variance is not strictly positive.
  void validate() const;
};

/// Transition step: posterior alpha-hat(q^{r-1}) -> prior alpha(q^r)
/// via Eq. (3) with the Gaussian transition (Eq. 12):
/// N(a*mu, a^2*sigma + gamma).
///
/// predict/correct/filter_step are defined inline: they are the innermost
/// arithmetic of every estimator chain, and the batch observe_run loop
/// only streams when the filter folds into it instead of costing a call
/// per worker per run. One shared definition keeps every caller — batch
/// loop, scalar reference, EM re-filter — on the identical IEEE-754
/// operation sequence, which the bit-identity tests rely on.
inline Gaussian predict(const Gaussian& posterior, const LdsParams& params) {
  return {params.a * posterior.mean,
          params.a * params.a * posterior.var + params.gamma};
}

/// Measurement step: prior alpha(q^r) + scores -> posterior alpha-hat(q^r).
/// With an empty score set the prior is returned unchanged (the worker was
/// not observed this run).
inline Gaussian correct(const Gaussian& prior, const ScoreSet& scores,
                        const LdsParams& params) {
  if (scores.empty()) return prior;
  // Eqs. (17)-(18) with K = prior.var: posterior precision is the prior
  // precision plus N/eta; the mean weighs the prior by eta and the score
  // sum by K.
  const double k = prior.var;
  const double n = scores.count;
  const double denom = n * k + params.eta;
  return {(params.eta * prior.mean + k * scores.sum) / denom,
          k * params.eta / denom};
}

/// One full Theorem-3 step: previous posterior -> this run's posterior.
inline Gaussian filter_step(const Gaussian& previous_posterior,
                            const ScoreSet& scores, const LdsParams& params) {
  return correct(predict(previous_posterior, params), scores, params);
}

/// The parts of a history's log-likelihood that depend on the scores
/// alone: the score count N, the count R of runs with scores, and the
/// within-run scatter W = sum_r (SS_r - S_r^2 / n_r).
struct HistoryTotals {
  double observations = 0.0;
  double observed_runs = 0.0;
  double scatter = 0.0;

  static HistoryTotals of(std::span<const ScoreSet> history) {
    HistoryTotals totals;
    for (const ScoreSet& s : history) {
      if (s.empty()) continue;
      totals.observations += s.count;
      totals.observed_runs += 1.0;
      totals.scatter += s.sum_squares - s.sum * s.sum / s.count;
    }
    return totals;
  }
};

/// Log-likelihood of a forward pass, accumulated from what predict and
/// correct already have. For a run of n scores with sum S and sum of
/// squares SS under the prior N(m, K), the marginal of the scores is
/// N(m 1, eta I + K 1 1^T), so
///   log p(S) = -(n/2) log(2 pi eta) + (1/2) log eta - (1/2) log(nK + eta)
///              - (SS - S^2/n) / (2 eta) - (S - n m)^2 / (2 n (nK + eta)).
/// Per observed run, add() costs one division for the innovation term and
/// one multiplication into a running product of nK + eta, rescaled by a
/// power of two whenever it leaves [2^-512, 2^512]; total() takes one log
/// of the product and adds the data-only terms of HistoryTotals.
struct LogLikelihoodAccumulator {
  double innovations = 0.0;  // sum_r (S - n m)^2 / (n (nK + eta))
  double product = 1.0;      // prod_r (nK + eta) = product * 2^exponent
  int exponent = 0;

  void add(const Gaussian& prior, const ScoreSet& scores,
           const LdsParams& params) {
    if (scores.empty()) return;
    const double n = scores.count;
    const double denom = n * prior.var + params.eta;
    const double innovation = scores.sum - n * prior.mean;
    innovations += innovation * innovation / (n * denom);
    product *= denom;
    if (!(product >= 0x1p-512 && product <= 0x1p512)) {
      int e = 0;
      product = std::frexp(product, &e);
      exponent += e;
    }
  }

  double total(const HistoryTotals& totals, const LdsParams& params) const {
    if (totals.observed_runs == 0.0) return 0.0;
    const double log_eta = std::log(params.eta);
    const double log_product =
        std::log(product) + exponent * std::numbers::ln2;
    return -0.5 * (totals.observations * std::log(2.0 * std::numbers::pi) +
                   (totals.observations - totals.observed_runs) * log_eta +
                   log_product + totals.scatter / params.eta + innovations);
  }
};

/// Log marginal likelihood log p(S^r | S^{1..r-1}) of one run's score set
/// under the prior alpha(q^r). Zero for an empty set.
double log_marginal(const Gaussian& prior, const ScoreSet& scores,
                    const LdsParams& params);

/// Results of filtering a whole history.
struct FilterResult {
  std::vector<Gaussian> priors;      // alpha(q^r), one per run
  std::vector<Gaussian> posteriors;  // alpha-hat(q^r), one per run
  double log_likelihood = 0.0;       // sum of per-run log marginals
};

/// Run the filter over a history, starting from the platform-preset initial
/// posterior alpha-hat(q^0) = N(mu0, sigma0).
FilterResult filter(const Gaussian& initial_posterior,
                    std::span<const ScoreSet> history, const LdsParams& params);

/// Total log-likelihood of a history (convenience wrapper around filter()).
double log_likelihood(const Gaussian& initial_posterior,
                      std::span<const ScoreSet> history, const LdsParams& params);

}  // namespace melody::lds
