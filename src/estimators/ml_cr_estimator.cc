#include "estimators/ml_cr_estimator.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/binio.h"

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

void MlCurrentRunEstimator::save(std::ostream& out) const {
  std::vector<auction::WorkerId> ids;
  ids.reserve(estimates_.size());
  for (const auto& [id, estimate] : estimates_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  binio::write_header(out, kMagic, kVersion);
  binio::write_u64(out, ids.size());
  for (auction::WorkerId id : ids) {
    binio::write_i32(out, id);
    binio::write_f64(out, estimates_.at(id));
  }
  if (!out) {
    throw std::runtime_error("MlCurrentRunEstimator::save: write failed");
  }
}

void MlCurrentRunEstimator::load(std::istream& in) {
  binio::read_header(in, kMagic, kVersion);
  const std::uint64_t worker_count =
      binio::read_u64(in, "MlCurrentRunEstimator worker count");
  std::unordered_map<auction::WorkerId, double> loaded;
  for (std::uint64_t w = 0; w < worker_count; ++w) {
    const auction::WorkerId id =
        binio::read_i32(in, "MlCurrentRunEstimator record");
    const double estimate = binio::read_f64(in, "MlCurrentRunEstimator record");
    if (!loaded.emplace(id, estimate).second) {
      throw std::runtime_error(
          "MlCurrentRunEstimator::load: duplicate worker id");
    }
  }
  estimates_ = std::move(loaded);
}

}  // namespace melody::estimators
