#include "estimators/melody_estimator.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/binio.h"
#include "util/parallel_for.h"

namespace melody::estimators {

namespace {
/// Null link / "no arena entry" marker for the arena history chains.
constexpr std::uint32_t kNoHistory = 0xffffffffu;
namespace binio = util::binio;
}  // namespace

void MelodyEstimator::register_worker(auction::WorkerId id) {
  const auto [it, inserted] = index_.try_emplace(id, ids_.size());
  if (!inserted) return;  // re-registration keeps the existing chain
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
  if (arena_history()) {
    history_head_.push_back(kNoHistory);
    history_len_.push_back(0);
  } else {
    history_.emplace_back();
  }
}

const lds::ScoreHistory& MelodyEstimator::gathered_history(
    std::size_t slot) const {
  static thread_local lds::ScoreHistory scratch;
  scratch.resize(history_len_[slot]);
  std::uint32_t node = history_head_[slot];
  for (std::size_t k = scratch.size(); k-- > 0;) {
    scratch[k] = history_arena_[node].scores;
    node = history_arena_[node].prev;
  }
  return scratch;
}

void MelodyEstimator::observe_slot(std::size_t slot,
                                   const lds::ScoreSet& scores) {
  ++runs_seen_[slot];
  if (scores.empty() && !config_.advance_on_empty_runs) {
    return;  // participation-indexed chain: idle runs change nothing
  }
  std::uint32_t arena_pos = kNoHistory;
  if (arena_history()) {
    arena_pos = static_cast<std::uint32_t>(history_arena_.size());
    history_arena_.emplace_back();
  }
  observe_slot_at(slot, scores, arena_pos);
}

void MelodyEstimator::observe_slot_at(std::size_t slot,
                                      const lds::ScoreSet& scores,
                                      std::uint32_t arena_pos) {
  const lds::LdsParams params{a_[slot], gamma_[slot], eta_[slot]};
  if (arena_history()) {
    history_arena_[arena_pos] = {scores, history_head_[slot]};
    history_head_[slot] = arena_pos;
    ++history_len_[slot];
  } else {
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
  lds::Gaussian posterior =
      lds::filter_step({mean_[slot], var_[slot]}, scores, params);
  if (collect) {
    static obs::Counter& updates =
        obs::registry().counter("estimator/kalman_updates");
    static obs::Summary& posterior_var =
        obs::registry().summary("estimator/posterior_var");
    updates.add();
    posterior_var.record(posterior.var);
  }

  // Algorithm 3 lines 6-8: periodic EM re-estimation of theta.
  ++runs_since_em_[slot];
  if (config_.reestimation_period > 0 &&
      runs_since_em_[slot] >= config_.reestimation_period &&
      observed_runs_[slot] >= config_.min_history_for_em) {
    reestimate_slot(slot, params, posterior, collect);
  }
  mean_[slot] =
      std::clamp(posterior.mean, config_.estimate_min, config_.estimate_max);
  var_[slot] = posterior.var;
}

void MelodyEstimator::reestimate_slot(std::size_t slot,
                                      const lds::LdsParams& params,
                                      lds::Gaussian& posterior, bool collect) {
  obs::ScopedTimer em_timer(collect ? &obs::registry().timer("estimator/em")
                                    : nullptr);
  const lds::Gaussian anchor{anchor_mean_[slot], anchor_var_[slot]};
  const lds::ScoreHistory& history =
      arena_history() ? gathered_history(slot) : history_[slot];
  const lds::EmResult em =
      lds::fit_lds(anchor, history, params, config_.em_options);
  a_[slot] = em.params.a;
  gamma_[slot] = em.params.gamma;
  eta_[slot] = em.params.eta;
  runs_since_em_[slot] = 0;
  ++em_count_[slot];
  if (collect) {
    static obs::Counter& em_runs = obs::registry().counter("estimator/em_runs");
    static obs::Summary& em_iterations =
        obs::registry().summary("estimator/em_iterations");
    em_runs.add();
    em_iterations.record(static_cast<double>(em.iterations));
  }
  if (config_.refilter_after_em) {
    posterior = lds::filter(anchor, history, em.params).posteriors.back();
    if (collect) {
      static obs::Counter& refilters =
          obs::registry().counter("estimator/refilters");
      refilters.add();
    }
  }
}

void MelodyEstimator::update_arena_range(std::size_t begin, std::size_t end,
                                         std::span<const lds::ScoreSet> scores,
                                         const std::uint32_t* pos,
                                         const std::uint32_t* slots) {
  // Observability is sampled once per range, not once per worker: the
  // whole range runs under one collection decision, and the disabled case
  // (the production default, and what the perf suite times) pays no
  // atomic load inside the loop.
  const bool collect = obs::enabled();
  obs::Summary* innovation = nullptr;
  obs::Counter* updates = nullptr;
  obs::Summary* posterior_var = nullptr;
  if (collect) {
    obs::MetricsRegistry& reg = obs::registry();
    innovation = &reg.summary("estimator/innovation_abs");
    updates = &reg.counter("estimator/kalman_updates");
    posterior_var = &reg.summary("estimator/posterior_var");
  }
  const bool em_enabled = config_.reestimation_period > 0;
  const double estimate_min = config_.estimate_min;
  const double estimate_max = config_.estimate_max;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t slot = slots != nullptr ? slots[i] : i;
    ++runs_seen_[slot];
    const std::uint32_t arena_pos = pos[i];
    if (arena_pos == kNoHistory) continue;  // idle, non-advancing run
    const lds::ScoreSet& set = scores[i];
    const lds::LdsParams params{a_[slot], gamma_[slot], eta_[slot]};
    history_arena_[arena_pos] = {set, history_head_[slot]};
    history_head_[slot] = arena_pos;
    ++history_len_[slot];
    if (!set.empty()) ++observed_runs_[slot];
    if (collect && !set.empty()) {
      innovation->record(std::abs(set.mean() - params.a * mean_[slot]));
    }
    lds::Gaussian posterior =
        lds::filter_step({mean_[slot], var_[slot]}, set, params);
    if (collect) {
      updates->add();
      posterior_var->record(posterior.var);
    }
    ++runs_since_em_[slot];
    if (em_enabled && runs_since_em_[slot] >= config_.reestimation_period &&
        observed_runs_[slot] >= config_.min_history_for_em) {
      reestimate_slot(slot, params, posterior, collect);
    }
    mean_[slot] = std::clamp(posterior.mean, estimate_min, estimate_max);
    var_[slot] = posterior.var;
  }
}

void MelodyEstimator::observe(auction::WorkerId id,
                              const lds::ScoreSet& scores) {
  observe_slot(index_.at(id), scores);
}

bool MelodyEstimator::matches_slot_order(
    std::span<const auction::WorkerId> ids) const {
  if (ids.size() != ids_.size()) return false;
  return std::equal(ids.begin(), ids.end(), ids_.begin());
}

void MelodyEstimator::observe_run(std::span<const auction::WorkerId> ids,
                                  std::span<const lds::ScoreSet> scores) {
  // Each worker's filter/EM chain reads and writes only its own slot of
  // the state arrays; slots are disjoint, so sharding is safe. The grain
  // keeps small populations on the calling thread — the crossover is
  // dominated by the EM runs, which are the expensive entries. The
  // platform observes workers in registration order, which is exactly the
  // dense slot order: one O(N) identity check then replaces N hash
  // lookups with direct slot indexing.
  // Crossover: a run that cannot trigger EM is one filter step per slot —
  // far cheaper than a fork-join — so it only leaves the calling thread
  // for very large populations. With EM enabled the expensive entries
  // dominate and sharding pays immediately. (Serial and parallel orders
  // are bit-identical either way; this is purely a cost decision.)
  const std::size_t min_grain =
      config_.reestimation_period > 0 ? 16 : 16384;
  const bool slot_order = matches_slot_order(ids);
  if (!arena_history()) {
    if (slot_order) {
      util::parallel_for(
          util::shared_pool(), ids.size(),
          [&](std::size_t i) { observe_slot(i, scores[i]); }, min_grain);
      return;
    }
    util::parallel_for(
        util::shared_pool(), ids.size(),
        [&](std::size_t i) { observe(ids[i], scores[i]); }, min_grain);
    return;
  }

  // Arena mode: the per-slot updates append to the shared arena, so a
  // serial prefix pass assigns every appending slot its position (in the
  // same order the serial loop would have appended) and sizes the arena
  // once. The sharded bodies then write disjoint, pre-sized entries —
  // same entries, same order, no race.
  std::vector<std::uint32_t>& pos = run_positions_;
  pos.resize(ids.size());
  std::uint32_t next = static_cast<std::uint32_t>(history_arena_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool appends = !scores[i].empty() || config_.advance_on_empty_runs;
    pos[i] = appends ? next++ : kNoHistory;
  }
  history_arena_.resize(next);
  const std::uint32_t* slot_of = nullptr;
  if (!slot_order) {
    std::vector<std::uint32_t>& slots = run_slots_;
    slots.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      slots[i] = static_cast<std::uint32_t>(index_.at(ids[i]));
    }
    slot_of = slots.data();
  }
  // Shard whole grain-sized ranges, not single slots: the fused range body
  // is where the batch update earns its throughput, and any partition of
  // disjoint slots produces identical state.
  const std::size_t grain = std::max<std::size_t>(min_grain, 1);
  const std::size_t chunks = (ids.size() + grain - 1) / grain;
  util::parallel_for(util::shared_pool(), chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(ids.size(), begin + grain);
    update_arena_range(begin, end, scores, pos.data(), slot_of);
  });
}

double MelodyEstimator::estimate(auction::WorkerId id) const {
  const std::size_t slot = index_.at(id);
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
  const std::size_t slot = index_.at(id);
  return {mean_[slot], var_[slot]};
}

lds::LdsParams MelodyEstimator::params(auction::WorkerId id) const {
  const std::size_t slot = index_.at(id);
  return {a_[slot], gamma_[slot], eta_[slot]};
}

int MelodyEstimator::reestimation_count(auction::WorkerId id) const {
  return em_count_[index_.at(id)];
}

void MelodyEstimator::save(std::ostream& out) const {
  // Sort by id so snapshots are byte-identical across runs (and across
  // state layouts: this is the same record order the AoS code emitted).
  std::vector<auction::WorkerId> ids = ids_;
  std::sort(ids.begin(), ids.end());

  binio::write_header(out, kBlobMagic, kBlobVersion);
  binio::write_u64(out, ids.size());
  for (auction::WorkerId id : ids) {
    const std::size_t s = index_.at(id);
    // Arena mode gathers the slot's chain into the same oldest-first
    // per-worker sequence the window mode stores, so the snapshot bytes
    // are identical across storage modes.
    const lds::ScoreHistory& history =
        arena_history() ? gathered_history(s) : history_[s];
    binio::write_i32(out, id);
    for (const double v : {mean_[s], var_[s], anchor_mean_[s], anchor_var_[s],
                           a_[s], gamma_[s], eta_[s]}) {
      binio::write_f64(out, v);
    }
    for (const int v : {runs_since_em_[s], runs_seen_[s], observed_runs_[s],
                        em_count_[s]}) {
      binio::write_i32(out, v);
    }
    binio::write_u32(out, static_cast<std::uint32_t>(history.size()));
    for (const lds::ScoreSet& set : history) {
      binio::write_i32(out, set.count);
      binio::write_f64(out, set.sum);
      binio::write_f64(out, set.sum_squares);
    }
  }
  if (!out) throw std::runtime_error("MelodyEstimator::save: write failed");
}

void MelodyEstimator::load(std::istream& in) {
  binio::read_header(in, kBlobMagic, kBlobVersion);
  const std::uint64_t worker_count =
      binio::read_u64(in, "MelodyEstimator worker count");
  MelodyEstimator loaded(config_);
  binio::reserve_bounded(loaded.ids_, worker_count);
  for (std::uint64_t w = 0; w < worker_count; ++w) {
    const auction::WorkerId id = binio::read_i32(in, "MelodyEstimator record");
    lds::Gaussian posterior;
    lds::Gaussian anchor;
    lds::LdsParams params;
    for (double* v : {&posterior.mean, &posterior.var, &anchor.mean,
                      &anchor.var, &params.a, &params.gamma, &params.eta}) {
      *v = binio::read_f64(in, "MelodyEstimator record");
    }
    const int runs_since_em = binio::read_i32(in, "MelodyEstimator record");
    const int runs_seen = binio::read_i32(in, "MelodyEstimator record");
    const int observed_runs = binio::read_i32(in, "MelodyEstimator record");
    const int em_count = binio::read_i32(in, "MelodyEstimator record");
    const std::uint32_t history_size =
        binio::read_u32(in, "MelodyEstimator record");
    params.validate();
    if (posterior.var <= 0.0 || anchor.var <= 0.0) {
      throw std::runtime_error("MelodyEstimator::load: invalid posterior");
    }
    if (loaded.index_.contains(id)) {
      throw std::runtime_error("MelodyEstimator::load: duplicate worker id");
    }
    loaded.index_.emplace(id, loaded.ids_.size());
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
    // Arena mode chains each entry straight into the shared arena; window
    // mode collects the worker's own vector.
    std::uint32_t head = kNoHistory;
    lds::ScoreHistory history;
    if (!loaded.arena_history()) binio::reserve_bounded(history, history_size);
    for (std::uint32_t k = 0; k < history_size; ++k) {
      lds::ScoreSet set;
      set.count = binio::read_i32(in, "MelodyEstimator history");
      set.sum = binio::read_f64(in, "MelodyEstimator history");
      set.sum_squares = binio::read_f64(in, "MelodyEstimator history");
      if (loaded.arena_history()) {
        const auto node =
            static_cast<std::uint32_t>(loaded.history_arena_.size());
        loaded.history_arena_.push_back({set, head});
        head = node;
      } else {
        history.push_back(set);
      }
    }
    if (loaded.arena_history()) {
      loaded.history_head_.push_back(head);
      loaded.history_len_.push_back(history_size);
    } else {
      loaded.history_.push_back(std::move(history));
    }
  }
  *this = std::move(loaded);
}

}  // namespace melody::estimators
