#include "estimators/ml_ar_estimator.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/binio.h"

namespace melody::estimators {

void MlAllRunsEstimator::register_worker(auction::WorkerId id) {
  states_.try_emplace(id);
}

void MlAllRunsEstimator::observe(auction::WorkerId id,
                                 const lds::ScoreSet& scores) {
  State& state = states_.at(id);
  state.score_sum += scores.sum;
  state.score_count += scores.count;
}

double MlAllRunsEstimator::estimate(auction::WorkerId id) const {
  const State& state = states_.at(id);
  if (state.score_count == 0) return initial_estimate_;
  return state.score_sum / state.score_count;
}

namespace {
namespace binio = util::binio;
// Binary layout: u64 worker count, then per worker in id order
// i32 id | f64 score_sum | i32 score_count.
constexpr std::string_view kMagic = "MLDYMLAR";
constexpr std::uint32_t kVersion = 2;  // v1 was text
}  // namespace

void MlAllRunsEstimator::save(std::ostream& out) const {
  std::vector<auction::WorkerId> ids;
  ids.reserve(states_.size());
  for (const auto& [id, state] : states_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  binio::write_header(out, kMagic, kVersion);
  binio::write_u64(out, ids.size());
  for (auction::WorkerId id : ids) {
    const State& s = states_.at(id);
    binio::write_i32(out, id);
    binio::write_f64(out, s.score_sum);
    binio::write_i32(out, s.score_count);
  }
  if (!out) throw std::runtime_error("MlAllRunsEstimator::save: write failed");
}

void MlAllRunsEstimator::load(std::istream& in) {
  binio::read_header(in, kMagic, kVersion);
  const std::uint64_t worker_count =
      binio::read_u64(in, "MlAllRunsEstimator worker count");
  std::unordered_map<auction::WorkerId, State> loaded;
  for (std::uint64_t w = 0; w < worker_count; ++w) {
    const auction::WorkerId id =
        binio::read_i32(in, "MlAllRunsEstimator record");
    State s;
    s.score_sum = binio::read_f64(in, "MlAllRunsEstimator record");
    s.score_count = binio::read_i32(in, "MlAllRunsEstimator record");
    if (!loaded.emplace(id, s).second) {
      throw std::runtime_error("MlAllRunsEstimator::load: duplicate worker id");
    }
  }
  states_ = std::move(loaded);
}

}  // namespace melody::estimators
