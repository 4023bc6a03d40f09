#include "estimators/melody_estimator.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/binio.h"
#include "util/parallel_for.h"

namespace melody::estimators {

namespace {
namespace binio = util::binio;
}  // namespace

void MelodyEstimator::register_worker(auction::WorkerId id) {
  // Re-registration keeps the existing chain.
  if (!index_.insert(ids_, id)) return;
  ids_.push_back(id);
  mean_.push_back(config_.initial_posterior.mean);  // newcomer: Alg. 3 line 2
  var_.push_back(config_.initial_posterior.var);
  anchor_mean_.push_back(config_.initial_posterior.mean);
  anchor_var_.push_back(config_.initial_posterior.var);
  a_.push_back(config_.initial_params.a);
  gamma_.push_back(config_.initial_params.gamma);
  eta_.push_back(config_.initial_params.eta);
  runs_since_em_.push_back(0);
  runs_seen_.push_back(0);
  observed_runs_.push_back(0);
  em_count_.push_back(0);
  history_.emplace_back();
}

bool MelodyEstimator::observe_slot(std::size_t slot,
                                   const lds::ScoreSet& scores) {
  ++runs_seen_[slot];
  if (scores.empty() && !config_.advance_on_empty_runs) {
    return false;  // participation-indexed chain: idle runs change nothing
  }
  const lds::LdsParams params{a_[slot], gamma_[slot], eta_[slot]};
  lds::ScoreHistory& history = history_[slot];
  history.push_back(scores);
  if (config_.max_history > 0 &&
      static_cast<int>(history.size()) > config_.max_history) {
    // Slide the window: fold the oldest run into the anchor posterior.
    const lds::Gaussian anchor = lds::filter_step(
        {anchor_mean_[slot], anchor_var_[slot]}, history.front(), params);
    anchor_mean_[slot] = anchor.mean;
    anchor_var_[slot] = anchor.var;
    history.erase(history.begin());
  }
  if (!scores.empty()) ++observed_runs_[slot];

  // Theorem 3 update (empty score sets propagate the prior only).
  // Observability (gated on one relaxed load; handles cached in statics;
  // each Summary carries its own mutex, so the sharded observe_run path
  // records concurrently without touching the registry lock): innovation
  // |s-bar - a*mu-hat| diagnoses posterior divergence, posterior variance
  // tracks filter confidence. Neither value feeds back into the update.
  const bool collect = obs::enabled();
  if (collect && !scores.empty()) {
    static obs::Summary& innovation =
        obs::registry().summary("estimator/innovation_abs");
    innovation.record(std::abs(scores.mean() - params.a * mean_[slot]));
  }
  const lds::Gaussian posterior =
      lds::filter_step({mean_[slot], var_[slot]}, scores, params);
  if (collect) {
    static obs::Counter& updates =
        obs::registry().counter("estimator/kalman_updates");
    static obs::Summary& posterior_var =
        obs::registry().summary("estimator/posterior_var");
    updates.add();
    posterior_var.record(posterior.var);
  }
  mean_[slot] =
      std::clamp(posterior.mean, config_.estimate_min, config_.estimate_max);
  var_[slot] = posterior.var;

  // Algorithm 3 lines 6-8: periodic EM re-estimation of theta, left to
  // the caller's refit pass.
  ++runs_since_em_[slot];
  return due_for_em(slot);
}

bool MelodyEstimator::due_for_em(std::size_t slot) const {
  return config_.reestimation_period > 0 &&
         runs_since_em_[slot] >= config_.reestimation_period &&
         observed_runs_[slot] >= config_.min_history_for_em;
}

void MelodyEstimator::refit_due() {
  if (refit_due_.empty()) return;
  // Lanes of one group share a history length. Sort by (length, slot) and
  // cut runs of equal length into groups of at most kEmLanes. Every lane
  // computes exactly its lone fit, so the grouping (and the partition of
  // groups across threads) decides the speed, never a result bit.
  auto length = [this](std::uint32_t slot) { return history_[slot].size(); };
  std::vector<std::uint32_t>& order = refit_due_;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              const std::size_t lx = length(x);
              const std::size_t ly = length(y);
              return lx != ly ? lx < ly : x < y;
            });
  std::vector<std::size_t>& groups = refit_groups_;
  groups.clear();
  for (std::size_t i = 0; i < order.size();) {
    groups.push_back(i);
    const std::size_t len = length(order[i]);
    std::size_t j = i + 1;
    while (j < order.size() && j - i < lds::kEmLanes &&
           length(order[j]) == len) {
      ++j;
    }
    i = j;
  }
  groups.push_back(order.size());
  const bool collect = obs::enabled();
  util::parallel_for(util::shared_pool(), groups.size() - 1,
                     [&](std::size_t g) {
                       fit_group({order.data() + groups[g],
                                  groups[g + 1] - groups[g]},
                                 collect);
                     });
}

void MelodyEstimator::fit_group(std::span<const std::uint32_t> slots,
                                bool collect) {
  const auto started = collect ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  const std::size_t lanes_used = slots.size();
  std::array<lds::EmLane, lds::kEmLanes> lanes;
  std::array<lds::EmResult, lds::kEmLanes> fits;
  for (std::size_t k = 0; k < lanes_used; ++k) {
    const std::size_t slot = slots[k];
    lds::EmLane& lane = lanes[k];
    lane.initial_posterior = {anchor_mean_[slot], anchor_var_[slot]};
    lane.history = history_[slot];
    lane.initial_params = {a_[slot], gamma_[slot], eta_[slot]};
  }
  lds::fit_lds_lanes({lanes.data(), lanes_used}, {fits.data(), lanes_used},
                     config_.em_options);

  // Apply: the fitted theta, then (optionally) the posterior re-filtered
  // under it from the anchor, clamped like every other update.
  for (std::size_t k = 0; k < lanes_used; ++k) {
    const std::size_t slot = slots[k];
    const lds::LdsParams& fitted = fits[k].params;
    a_[slot] = fitted.a;
    gamma_[slot] = fitted.gamma;
    eta_[slot] = fitted.eta;
    runs_since_em_[slot] = 0;
    ++em_count_[slot];
    if (config_.refilter_after_em) {
      lds::Gaussian posterior = lanes[k].initial_posterior;
      for (const lds::ScoreSet& set : lanes[k].history) {
        posterior = lds::filter_step(posterior, set, fitted);
      }
      mean_[slot] = std::clamp(posterior.mean, config_.estimate_min,
                               config_.estimate_max);
      var_[slot] = posterior.var;
    }
  }
  if (!collect) return;
  static obs::Counter& em_runs = obs::registry().counter("estimator/em_runs");
  static obs::Counter& cap_hits =
      obs::registry().counter("estimator/em_cap_hits");
  static obs::Counter& refilters =
      obs::registry().counter("estimator/refilters");
  static obs::Summary& em_iterations =
      obs::registry().summary("estimator/em_iterations");
  static obs::Summary& em_timer = obs::registry().timer("estimator/em");
  // The group shares one clock; each fit is charged an equal share.
  const double per_fit =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count() /
      static_cast<double>(lanes_used);
  for (std::size_t k = 0; k < lanes_used; ++k) {
    em_runs.add();
    em_iterations.record(static_cast<double>(fits[k].iterations));
    if (!fits[k].converged) cap_hits.add();
    if (config_.refilter_after_em) refilters.add();
    em_timer.record(per_fit);
  }
}

void MelodyEstimator::observe(auction::WorkerId id,
                              const lds::ScoreSet& scores) {
  const auto slot = static_cast<std::uint32_t>(index_.at(ids_, id));
  if (observe_slot(slot, scores)) fit_group({&slot, 1}, obs::enabled());
}

bool MelodyEstimator::matches_slot_order(
    std::span<const auction::WorkerId> ids) const {
  if (ids.size() != ids_.size()) return false;
  return std::equal(ids.begin(), ids.end(), ids_.begin());
}

void MelodyEstimator::observe_run(std::span<const auction::WorkerId> ids,
                                  std::span<const lds::ScoreSet> scores) {
  // Two passes. The filter pass updates every slot and collects the slots
  // that came due for EM; the refit pass then fits those in lanes. Each
  // slot's chain reads and writes only its own entries of the state
  // arrays, so both passes shard safely and any partition is
  // bit-identical to the serial order. The filter pass is one Theorem-3
  // step per slot — far cheaper than a fork-join — so it only leaves the
  // calling thread for very large populations. The platform observes
  // workers in registration order, which is exactly the dense slot order:
  // one O(N) identity check then replaces N hash lookups.
  constexpr std::size_t kFilterGrain = 16384;
  const std::size_t n = ids.size();
  const std::uint32_t* slot_of = nullptr;
  if (!matches_slot_order(ids)) {
    run_slots_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      run_slots_[i] = static_cast<std::uint32_t>(index_.at(ids_, ids[i]));
    }
    slot_of = run_slots_.data();
  }
  const std::size_t chunks = (n + kFilterGrain - 1) / kFilterGrain;
  run_due_.resize(chunks);
  util::parallel_for(util::shared_pool(), chunks, [&](std::size_t c) {
    const std::size_t begin = c * kFilterGrain;
    const std::size_t end = std::min(n, begin + kFilterGrain);
    std::vector<std::uint32_t>& due = run_due_[c];
    due.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t slot = slot_of != nullptr ? slot_of[i] : i;
      if (observe_slot(slot, scores[i])) {
        due.push_back(static_cast<std::uint32_t>(slot));
      }
    }
  });
  refit_due_.clear();
  for (const std::vector<std::uint32_t>& due : run_due_) {
    refit_due_.insert(refit_due_.end(), due.begin(), due.end());
  }
  refit_due();
}

double MelodyEstimator::estimate(auction::WorkerId id) const {
  const std::size_t slot = index_.at(ids_, id);
  // Eq. (19): mu^{r+1} = a * mu-hat^r, clamped to the score range.
  double estimate = a_[slot] * mean_[slot];
  if (config_.exploration_beta > 0.0) {
    estimate += config_.exploration_beta *
                std::sqrt(std::log(runs_seen_[slot] + 1.0) /
                          (observed_runs_[slot] + 1.0));
  }
  return std::clamp(estimate, config_.estimate_min, config_.estimate_max);
}

lds::Gaussian MelodyEstimator::posterior(auction::WorkerId id) const {
  const std::size_t slot = index_.at(ids_, id);
  return {mean_[slot], var_[slot]};
}

lds::LdsParams MelodyEstimator::params(auction::WorkerId id) const {
  const std::size_t slot = index_.at(ids_, id);
  return {a_[slot], gamma_[slot], eta_[slot]};
}

int MelodyEstimator::reestimation_count(auction::WorkerId id) const {
  return em_count_[index_.at(ids_, id)];
}

void MelodyEstimator::save_to(binio::Writer& out) const {
  // Records go in id order so snapshots are byte-identical across runs
  // (and across state layouts: this is the record order the AoS code
  // emitted).
  out.write_header(kBlobMagic, kBlobVersion);
  out.write_u64(ids_.size());
  auction::for_each_slot_by_id(ids_, [&](std::size_t s) {
    out.write_i32(ids_[s]);
    for (const double v : {mean_[s], var_[s], anchor_mean_[s], anchor_var_[s],
                           a_[s], gamma_[s], eta_[s]}) {
      out.write_f64(v);
    }
    for (const int v : {runs_since_em_[s], runs_seen_[s], observed_runs_[s],
                        em_count_[s]}) {
      out.write_i32(v);
    }
    out.write_u32(static_cast<std::uint32_t>(history_[s].size()));
    for (const lds::ScoreSet& set : history_[s]) {
      out.write_i32(set.count);
      out.write_f64(set.sum);
      out.write_f64(set.sum_squares);
    }
  });
}

void MelodyEstimator::load_from(binio::Reader& in) {
  // A worker record is i32 id | 7 x f64 | 4 x i32 | u32 history length,
  // then one i32 count | f64 sum | f64 sum_squares per run.
  constexpr std::size_t kRecordBytes = 4 + 7 * 8 + 4 * 4 + 4;
  constexpr std::size_t kRunBytes = 4 + 8 + 8;
  in.read_header(kBlobMagic, kBlobVersion);
  const std::uint64_t worker_count =
      in.read_u64("MelodyEstimator worker count");
  MelodyEstimator loaded(config_);
  in.reserve(loaded.ids_, worker_count, kRecordBytes,
             "MelodyEstimator worker count");
  const auto count = static_cast<std::size_t>(worker_count);
  for (auto* column : {&loaded.mean_, &loaded.var_, &loaded.anchor_mean_,
                       &loaded.anchor_var_, &loaded.a_, &loaded.gamma_,
                       &loaded.eta_}) {
    column->reserve(count);
  }
  for (auto* column : {&loaded.runs_since_em_, &loaded.runs_seen_,
                       &loaded.observed_runs_, &loaded.em_count_}) {
    column->reserve(count);
  }
  loaded.history_.reserve(count);
  for (std::uint64_t w = 0; w < worker_count; ++w) {
    const auction::WorkerId id = in.read_i32("MelodyEstimator record");
    lds::Gaussian posterior;
    lds::Gaussian anchor;
    lds::LdsParams params;
    for (double* v : {&posterior.mean, &posterior.var, &anchor.mean,
                      &anchor.var, &params.a, &params.gamma, &params.eta}) {
      *v = in.read_f64("MelodyEstimator record");
      // A NaN passes every ordered comparison below; NaN or an infinity
      // here would make estimate() NaN.
      if (!std::isfinite(*v)) {
        throw std::runtime_error("MelodyEstimator::load: non-finite field");
      }
    }
    const int runs_since_em = in.read_i32("MelodyEstimator record");
    const int runs_seen = in.read_i32("MelodyEstimator record");
    const int observed_runs = in.read_i32("MelodyEstimator record");
    const int em_count = in.read_i32("MelodyEstimator record");
    if (std::min({runs_since_em, runs_seen, observed_runs, em_count}) < 0) {
      throw std::runtime_error("MelodyEstimator::load: negative run count");
    }
    const std::uint32_t history_size = in.read_u32("MelodyEstimator record");
    try {
      params.validate();
    } catch (const std::domain_error& e) {
      // Out-of-range parameters in a blob are malformed input.
      throw std::runtime_error(std::string("MelodyEstimator::load: ") +
                               e.what());
    }
    if (posterior.var <= 0.0 || anchor.var <= 0.0) {
      throw std::runtime_error("MelodyEstimator::load: invalid posterior");
    }
    if (!loaded.index_.insert(loaded.ids_, id)) {
      throw std::runtime_error("MelodyEstimator::load: duplicate worker id");
    }
    loaded.ids_.push_back(id);
    loaded.mean_.push_back(posterior.mean);
    loaded.var_.push_back(posterior.var);
    loaded.anchor_mean_.push_back(anchor.mean);
    loaded.anchor_var_.push_back(anchor.var);
    loaded.a_.push_back(params.a);
    loaded.gamma_.push_back(params.gamma);
    loaded.eta_.push_back(params.eta);
    loaded.runs_since_em_.push_back(runs_since_em);
    loaded.runs_seen_.push_back(runs_seen);
    loaded.observed_runs_.push_back(observed_runs);
    loaded.em_count_.push_back(em_count);
    lds::ScoreHistory& history = loaded.history_.emplace_back();
    in.reserve(history, history_size, kRunBytes, "MelodyEstimator history");
    for (std::uint32_t k = 0; k < history_size; ++k) {
      lds::ScoreSet set;
      set.count = in.read_i32("MelodyEstimator history");
      set.sum = in.read_f64("MelodyEstimator history");
      set.sum_squares = in.read_f64("MelodyEstimator history");
      if (set.count < 0 || !std::isfinite(set.sum) ||
          !std::isfinite(set.sum_squares)) {
        throw std::runtime_error("MelodyEstimator::load: invalid score set");
      }
      history.push_back(set);
    }
  }
  *this = std::move(loaded);
}

}  // namespace melody::estimators
