#include "estimators/grid_estimator.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "estimators/id_map_blob.h"

namespace melody::estimators {

GridEstimator::GridEstimator(GridEstimatorConfig config)
    : config_(std::move(config)) {
  config_.params.validate();
  if (!config_.emission) {
    config_.emission = lds::gaussian_emission(config_.params.eta);
  }
}

void GridEstimator::register_worker(auction::WorkerId id) {
  if (filters_.count(id) > 0) return;
  filters_.emplace(
      id, std::make_unique<lds::GridFilter>(
              lds::GridDensity(config_.quality_min, config_.quality_max,
                               config_.grid_points),
              config_.initial_posterior, config_.params, config_.emission));
}

void GridEstimator::observe(auction::WorkerId id, const lds::ScoreSet& scores) {
  // Sufficient-statistics path: re-expand the set as `count` observations
  // at its mean. For Gaussian emissions this changes only the (unused)
  // marginal-likelihood constant; the posterior is identical because the
  // Gaussian likelihood depends on the scores only through (N, sum).
  std::vector<double> expanded(static_cast<std::size_t>(scores.count),
                               scores.mean());
  observe_scores(id, expanded);
}

void GridEstimator::observe_scores(auction::WorkerId id,
                                   std::span<const double> scores) {
  auto& filter = filters_.at(id);
  if (scores.empty() && !config_.advance_on_empty_runs) return;
  filter->step(scores);
}

double GridEstimator::estimate(auction::WorkerId id) const {
  // Eq. (19) analogue: one transition applied to the posterior mean.
  return config_.params.a * filters_.at(id)->mean();
}

double GridEstimator::posterior_mean(auction::WorkerId id) const {
  return filters_.at(id)->mean();
}

double GridEstimator::posterior_variance(auction::WorkerId id) const {
  return filters_.at(id)->variance();
}

namespace {
namespace binio = util::binio;
// Binary layout: u64 worker count, then per worker in id order
// i32 id | u32 grid size | f64 density weight per grid point.
constexpr std::string_view kMagic = "MLDYGRID";
constexpr std::uint32_t kVersion = 2;  // v1 was text
}  // namespace

void GridEstimator::save_to(binio::Writer& out) const {
  save_id_map(out, kMagic, kVersion, filters_, [&out](const auto& filter) {
    const auto weights = filter->posterior().weights();
    out.write_u32(static_cast<std::uint32_t>(weights.size()));
    for (double w : weights) out.write_f64(w);
  });
}

void GridEstimator::load_from(binio::Reader& in) {
  filters_ = load_id_map<decltype(filters_)>(
      in, kMagic, kVersion, "GridEstimator", [&](const char* what) {
        // The grid size must match the configuration before it sizes
        // anything.
        if (in.read_u32(what) != config_.grid_points) {
          throw std::runtime_error(
              "GridEstimator::load: grid size does not match the "
              "configuration");
        }
        std::vector<double> weights(config_.grid_points);
        for (double& weight : weights) {
          weight = in.read_f64("GridEstimator density");
        }
        auto filter = std::make_unique<lds::GridFilter>(
            lds::GridDensity(config_.quality_min, config_.quality_max,
                             config_.grid_points),
            config_.initial_posterior, config_.params, config_.emission);
        filter->restore_posterior(weights);
        return filter;
      });
}

}  // namespace melody::estimators
