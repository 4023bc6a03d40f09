// ML-AR baseline (Section 7.7): the maximum-likelihood estimate over All
// Runs — the mean of every score the worker has ever received, weighing all
// history equally. Under-fits workers whose quality drifts.
#pragma once

#include <unordered_map>

#include "estimators/estimator.h"

namespace melody::estimators {

class MlAllRunsEstimator final : public QualityEstimator {
 public:
  explicit MlAllRunsEstimator(double initial_estimate)
      : initial_estimate_(initial_estimate) {}

  void register_worker(auction::WorkerId id) override;
  void observe(auction::WorkerId id, const lds::ScoreSet& scores) override;
  double estimate(auction::WorkerId id) const override;
  std::string name() const override { return "ML-AR"; }

  /// Versioned binary snapshot of the running sums (initial_estimate is
  /// config and is not saved).
  void save_to(util::binio::Writer& out) const override;
  void load_from(util::binio::Reader& in) override;

 private:
  struct State {
    double score_sum = 0.0;
    int score_count = 0;
  };

  double initial_estimate_;
  std::unordered_map<auction::WorkerId, State> states_;
};

}  // namespace melody::estimators
