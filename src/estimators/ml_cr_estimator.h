// ML-CR baseline (Section 7.7): the maximum-likelihood estimate from the
// Current Run only — the mean of this run's scores. Over-fits to the
// latest observation; used by most prior short-term mechanisms.
#pragma once

#include <unordered_map>

#include "estimators/estimator.h"

namespace melody::estimators {

class MlCurrentRunEstimator final : public QualityEstimator {
 public:
  explicit MlCurrentRunEstimator(double initial_estimate)
      : initial_estimate_(initial_estimate) {}

  void register_worker(auction::WorkerId id) override;
  void observe(auction::WorkerId id, const lds::ScoreSet& scores) override;
  double estimate(auction::WorkerId id) const override;
  std::string name() const override { return "ML-CR"; }

  /// Versioned binary snapshot of the per-worker estimates (initial_estimate
  /// is config and is not saved).
  void save_to(util::binio::Writer& out) const override;
  void load_from(util::binio::Reader& in) override;

 private:
  double initial_estimate_;
  // Runs with no scores keep the previous estimate (there is no current-run
  // evidence to overwrite it with).
  std::unordered_map<auction::WorkerId, double> estimates_;
};

}  // namespace melody::estimators
