#include "estimators/ml_cr_estimator.h"

#include <string_view>

#include "estimators/id_map_blob.h"

namespace melody::estimators {

void MlCurrentRunEstimator::register_worker(auction::WorkerId id) {
  estimates_.try_emplace(id, initial_estimate_);
}

void MlCurrentRunEstimator::observe(auction::WorkerId id,
                                    const lds::ScoreSet& scores) {
  if (scores.empty()) return;
  estimates_.at(id) = scores.mean();
}

double MlCurrentRunEstimator::estimate(auction::WorkerId id) const {
  return estimates_.at(id);
}

namespace {
namespace binio = util::binio;
// Binary layout: u64 worker count, then per worker in id order
// i32 id | f64 estimate.
constexpr std::string_view kMagic = "MLDYMLCR";
constexpr std::uint32_t kVersion = 2;  // v1 was text
}  // namespace

void MlCurrentRunEstimator::save_to(binio::Writer& out) const {
  save_id_map(out, kMagic, kVersion, estimates_,
              [&out](double estimate) { out.write_f64(estimate); });
}

void MlCurrentRunEstimator::load_from(binio::Reader& in) {
  estimates_ = load_id_map<decltype(estimates_)>(
      in, kMagic, kVersion, "MlCurrentRunEstimator",
      [&in](const char* what) { return in.read_f64(what); });
}

}  // namespace melody::estimators
