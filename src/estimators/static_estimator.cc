#include "estimators/static_estimator.h"

#include <string_view>

#include "estimators/id_map_blob.h"

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

void StaticEstimator::save_to(binio::Writer& out) const {
  save_id_map(out, kMagic, kVersion, states_, [&out](const State& s) {
    out.write_i32(s.runs_seen);
    out.write_f64(s.score_sum);
    out.write_i32(s.score_count);
  });
}

void StaticEstimator::load_from(binio::Reader& in) {
  states_ = load_id_map<decltype(states_)>(
      in, kMagic, kVersion, "StaticEstimator", [&in](const char* what) {
        State s;
        s.runs_seen = in.read_i32(what);
        s.score_sum = in.read_f64(what);
        s.score_count = in.read_i32(what);
        return s;
      });
}

}  // namespace melody::estimators
