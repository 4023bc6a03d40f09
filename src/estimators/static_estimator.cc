#include "estimators/static_estimator.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/binio.h"

namespace melody::estimators {

void StaticEstimator::register_worker(auction::WorkerId id) {
  states_.try_emplace(id);
}

void StaticEstimator::observe(auction::WorkerId id, const lds::ScoreSet& scores) {
  State& state = states_.at(id);
  if (state.runs_seen >= warmup_runs_) return;  // frozen after warm-up
  ++state.runs_seen;
  state.score_sum += scores.sum;
  state.score_count += scores.count;
}

double StaticEstimator::estimate(auction::WorkerId id) const {
  const State& state = states_.at(id);
  if (state.score_count == 0) return initial_estimate_;
  return state.score_sum / state.score_count;
}

namespace {
namespace binio = util::binio;
// Binary layout: u64 worker count, then per worker in id order
// i32 id | i32 runs_seen | f64 score_sum | i32 score_count.
constexpr std::string_view kMagic = "MLDYSTAT";
constexpr std::uint32_t kVersion = 2;  // v1 was text
}  // namespace

void StaticEstimator::save(std::ostream& out) const {
  // Sorted by id so snapshots are byte-identical across runs.
  std::vector<auction::WorkerId> ids;
  ids.reserve(states_.size());
  for (const auto& [id, state] : states_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  binio::write_header(out, kMagic, kVersion);
  binio::write_u64(out, ids.size());
  for (auction::WorkerId id : ids) {
    const State& s = states_.at(id);
    binio::write_i32(out, id);
    binio::write_i32(out, s.runs_seen);
    binio::write_f64(out, s.score_sum);
    binio::write_i32(out, s.score_count);
  }
  if (!out) throw std::runtime_error("StaticEstimator::save: write failed");
}

void StaticEstimator::load(std::istream& in) {
  binio::read_header(in, kMagic, kVersion);
  const std::uint64_t worker_count =
      binio::read_u64(in, "StaticEstimator worker count");
  std::unordered_map<auction::WorkerId, State> loaded;
  for (std::uint64_t w = 0; w < worker_count; ++w) {
    const auction::WorkerId id = binio::read_i32(in, "StaticEstimator record");
    State s;
    s.runs_seen = binio::read_i32(in, "StaticEstimator record");
    s.score_sum = binio::read_f64(in, "StaticEstimator record");
    s.score_count = binio::read_i32(in, "StaticEstimator record");
    if (!loaded.emplace(id, s).second) {
      throw std::runtime_error("StaticEstimator::load: duplicate worker id");
    }
  }
  states_ = std::move(loaded);
}

}  // namespace melody::estimators
