// Quality tracker backed by the grid-based Theorem-2 filter instead of the
// closed-form Gaussian update — the "general form" the paper derives before
// specializing to Gaussians. Two uses:
//   * non-Gaussian emission families (Poisson counts, Beta accuracies, ...)
//     tracked end to end, as Section 5 says "any other distribution in the
//     exponential family could also be used";
//   * an independent cross-check of the Kalman tracker (for Gaussian
//     emissions the two agree to grid resolution).
//
// Hyper-parameters are fixed at construction (no EM): the grid filter's
// E-step analogue would require grid smoothing, which is out of scope for
// this tracker; pair it with parameters learned offline if needed.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>

#include "estimators/estimator.h"
#include "lds/grid_filter.h"

namespace melody::estimators {

struct GridEstimatorConfig {
  /// Grid support and resolution for the posterior density.
  double quality_min = 0.0;
  double quality_max = 12.0;
  std::size_t grid_points = 400;
  /// Initial posterior (truncated to the grid support).
  lds::Gaussian initial_posterior{5.5, 2.25};
  /// Transition parameters; the emission is supplied separately.
  lds::LdsParams params{1.0, 1.0, 9.0};
  /// Per-score emission log-density (defaults to the Gaussian of
  /// params.eta when null at construction).
  lds::EmissionLogDensity emission;
  /// Index the chain by participation, like the MELODY tracker default.
  bool advance_on_empty_runs = false;
};

/// Tracks each worker's posterior as a grid density. observe() needs raw
/// scores to evaluate arbitrary emission densities; the ScoreSet protocol
/// only carries sufficient statistics, so this estimator exposes an
/// additional observe_scores() and treats a plain ScoreSet as
/// `count` pseudo-observations at the set's mean (exact for Gaussian
/// emissions, an approximation otherwise).
class GridEstimator final : public QualityEstimator {
 public:
  explicit GridEstimator(GridEstimatorConfig config = {});

  void register_worker(auction::WorkerId id) override;
  void observe(auction::WorkerId id, const lds::ScoreSet& scores) override;
  double estimate(auction::WorkerId id) const override;
  std::string name() const override { return "GRID"; }

  /// Exact-path observation with the raw per-task scores.
  void observe_scores(auction::WorkerId id, std::span<const double> scores);

  double posterior_mean(auction::WorkerId id) const;
  double posterior_variance(auction::WorkerId id) const;

  /// Versioned binary snapshot of every worker's posterior grid density.
  /// The config (grid support, params, emission callback) is not saved:
  /// construct the new estimator with the same config before load().
  void save_to(util::binio::Writer& out) const override;
  void load_from(util::binio::Reader& in) override;

 private:
  GridEstimatorConfig config_;
  std::unordered_map<auction::WorkerId, std::unique_ptr<lds::GridFilter>>
      filters_;
};

}  // namespace melody::estimators
