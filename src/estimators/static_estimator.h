// STATIC baseline (Section 7.7): averages a worker's scores over a fixed
// warm-up window of runs, then freezes the estimate forever. Models prior
// mechanisms that treat worker quality as a given constant.
#pragma once

#include <unordered_map>

#include "estimators/estimator.h"

namespace melody::estimators {

class StaticEstimator final : public QualityEstimator {
 public:
  /// initial_estimate is used until the first warm-up score arrives;
  /// warmup_runs matches the paper's "a few (50) runs at the beginning".
  StaticEstimator(double initial_estimate, int warmup_runs = 50)
      : initial_estimate_(initial_estimate), warmup_runs_(warmup_runs) {}

  void register_worker(auction::WorkerId id) override;
  void observe(auction::WorkerId id, const lds::ScoreSet& scores) override;
  double estimate(auction::WorkerId id) const override;
  std::string name() const override { return "STATIC"; }

  /// Versioned binary snapshot of the warm-up accumulators (the constructor
  /// arguments are config and are not saved).
  void save_to(util::binio::Writer& out) const override;
  void load_from(util::binio::Reader& in) override;

 private:
  struct State {
    int runs_seen = 0;
    double score_sum = 0.0;
    int score_count = 0;
  };

  double initial_estimate_;
  int warmup_runs_;
  std::unordered_map<auction::WorkerId, State> states_;
};

}  // namespace melody::estimators
