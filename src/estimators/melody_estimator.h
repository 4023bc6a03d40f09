// MELODY's quality updater (Algorithm 3): per-worker Kalman posterior
// update after every run, Eq. (19) prediction for the next run's auction,
// and EM re-estimation of theta = {a, gamma, eta} every T runs.
//
// State is stored structure-of-arrays: one dense slot per registered
// worker, with the posterior/anchor/parameter scalars in contiguous
// per-field arrays. The per-run batch update walks those arrays in slot
// order — no hash lookup per worker on the hot path — while the arithmetic
// per worker is exactly the scalar chain's (same lds::filter_step on the
// same values, and an EM lane computing exactly a lone fit), so estimates
// and snapshots are bit-identical to the AoS layout (locked by
// test_soa_equivalence against perf::reference::AosKalmanChain).
//
// A run is two passes: the filter pass updates every slot and collects
// the slots that came due for EM; the refit pass fits those in groups of
// up to lds::kEmLanes equal-length histories, then applies each theta and
// re-filters. Due workers arrive together (every T-th participation), so
// the groups fill.
//
// Score histories live in one store: a contiguous ScoreHistory per dense
// slot, oldest run first. Unbounded mode (max_history == 0, the paper's
// behaviour) is the window that never slides; with a bound, the oldest run
// is folded into the slot's anchor posterior and erased from the front. EM
// lanes, the re-filter and save() read a slot's history in place, and it
// is element-for-element the sequence the AoS reference keeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "auction/slot_index.h"
#include "estimators/estimator.h"
#include "lds/em.h"
#include "lds/kalman.h"

namespace melody::estimators {

struct MelodyEstimatorConfig {
  /// Platform-preset initial posterior alpha-hat(q^0) = N(mu0, sigma0).
  lds::Gaussian initial_posterior{5.5, 2.25};
  /// Initial hyper-parameters before the first EM re-estimation.
  lds::LdsParams initial_params{1.0, 1.0, 9.0};
  /// Re-estimate theta every T runs (Algorithm 3 lines 6-8); 0 disables EM.
  int reestimation_period = 10;
  /// EM options. The transition-coefficient clamp is much tighter than the
  /// generic lds::EmOptions default: worker quality evolves slowly, and on
  /// sparse histories an unconstrained |a| makes the idle-worker predict
  /// chain (mu <- a * mu every run) diverge.
  lds::EmOptions em_options{.max_abs_a = 1.25};
  /// After EM updates theta, re-run the filter over the stored history so
  /// the posterior is consistent with the new parameters. Algorithm 3 as
  /// written keeps the stale posterior; re-filtering is a strict refinement
  /// and is benchmarked in the T-ablation.
  bool refilter_after_em = true;
  /// Require at least this many runs *with scores* before running EM (EM
  /// on a near-empty history is ill-posed).
  int min_history_for_em = 5;
  /// Posterior means and estimates are clamped into this interval after
  /// every update. Scores live in a bounded range (Table 4: [1, 10]), so a
  /// quality estimate outside it is never meaningful; the clamp also stops
  /// long idle predict-only chains from drifting without bound.
  double estimate_min = 1.0;
  double estimate_max = 10.0;
  /// Whether a run with no scores advances the worker's latent chain
  /// (posterior <- transition(posterior), variance grows by gamma).
  /// Default false: the chain is indexed by *participation*, so an idle
  /// worker keeps his last posterior exactly. The paper's scalar LDS has no
  /// intercept, so with a fitted a != 1 a long idle stretch under per-run
  /// propagation collapses the estimate to 0 or blows it up — an artifact,
  /// not a prediction (see DESIGN.md).
  bool advance_on_empty_runs = false;
  /// Bound on the stored per-worker history (0 = unbounded, the paper's
  /// behaviour: a window that never slides). When the history exceeds the
  /// bound, the oldest run is folded into a per-worker anchor posterior by
  /// one exact filter step, so EM and re-filtering operate on a sliding
  /// window with the correct Bayesian prefix — memory and EM cost become
  /// O(window) per worker instead of O(total runs).
  int max_history = 0;
  /// Exploration extension (beyond the paper; see DESIGN.md ablation A6).
  /// With beta > 0 the reported estimate carries a UCB-style bonus
  /// beta * sqrt(log(runs + 1) / (observed_runs + 1)), so a worker whose
  /// estimate collapsed gets periodically re-tried instead of starving
  /// under scarce budgets. 0 disables the bonus (paper behaviour).
  double exploration_beta = 0.0;
};

class MelodyEstimator final : public QualityEstimator {
 public:
  explicit MelodyEstimator(MelodyEstimatorConfig config = {})
      : config_(std::move(config)) {
    config_.initial_params.validate();
  }

  void register_worker(auction::WorkerId id) override;
  void observe(auction::WorkerId id, const lds::ScoreSet& scores) override;
  /// Shards the per-worker Kalman updates, then the EM lane groups, across
  /// util::shared_pool(). Safe because each worker's chain touches only
  /// its own dense slot and the arrays are never resized during a pass;
  /// bit-identical to the serial order for any thread count. When `ids` matches the dense slot
  /// order (the platform's usual case — workers observed in registration
  /// order), the per-worker id lookup is skipped entirely and the update
  /// streams straight over the state arrays.
  void observe_run(std::span<const auction::WorkerId> ids,
                   std::span<const lds::ScoreSet> scores) override;
  double estimate(auction::WorkerId id) const override;
  std::string name() const override { return "MELODY"; }

  /// Current posterior alpha-hat(q^r) for a worker (inspection/tests).
  /// Returned by value: under the SoA layout the mean and variance live in
  /// different arrays, so there is no Gaussian object to reference.
  lds::Gaussian posterior(auction::WorkerId id) const;
  /// Current hyper-parameters for a worker (inspection/tests). By value,
  /// as with posterior().
  lds::LdsParams params(auction::WorkerId id) const;
  /// Number of EM re-estimations performed for a worker so far.
  int reestimation_count(auction::WorkerId id) const;

  /// Snapshot format: magic "MLDYTRKR", u32 version, u64 worker count,
  /// then one fixed little-endian record per worker in id order —
  ///   i32 id | f64 mean, var, anchor mean, anchor var, a, gamma, eta
  ///   | i32 runs_since_em, runs_seen, observed_runs, em_count
  ///   | u32 history length, then per run: i32 count | f64 sum
  ///   | f64 sum_squares
  /// (80 bytes per worker plus 20 per stored run; versions 1 and 2 were
  /// text).
  static constexpr std::string_view kBlobMagic = "MLDYTRKR";
  static constexpr std::uint32_t kBlobVersion = 3;

  /// Persist all per-worker state (posteriors, hyper-parameters, score
  /// histories, counters) so a platform can restart without losing what it
  /// learned. The configuration itself is not saved — construct the
  /// estimator with the same config before load(). Throws
  /// std::runtime_error on I/O failure or malformed input.
  void save_to(util::binio::Writer& out) const override;
  void load_from(util::binio::Reader& in) override;

  /// Number of registered workers (inspection/tests).
  std::size_t worker_count() const noexcept { return ids_.size(); }
  /// True once `id` is registered.
  bool contains(auction::WorkerId id) const {
    return index_.contains(ids_, id);
  }

 private:
  /// The Algorithm 3 filter update for the worker in dense slot `slot`:
  /// append the run to its history (sliding the window if bounded), then
  /// one Theorem-3 step. Returns true when the slot came due for EM; the
  /// caller then fits it (fit_group) once the filter pass is done.
  bool observe_slot(std::size_t slot, const lds::ScoreSet& scores);

  /// Algorithm 3 line 6: T runs since the last fit, enough observed runs.
  bool due_for_em(std::size_t slot) const;

  /// Algorithm 3 lines 6-8 for every slot in refit_due_: groups of up to
  /// lds::kEmLanes slots with equal history length, fitted together and
  /// sharded across util::shared_pool().
  void refit_due();

  /// Fit one group of equal-length slots in the EM lane kernel, then apply
  /// each fitted theta and the optional posterior re-filter.
  void fit_group(std::span<const std::uint32_t> slots, bool collect);

  /// True when `ids` is exactly the dense slot order, making per-worker
  /// map lookups unnecessary.
  bool matches_slot_order(std::span<const auction::WorkerId> ids) const;

  MelodyEstimatorConfig config_;

  // Dense SoA state: slot s of every array belongs to worker ids_[s];
  // index_ finds an id's slot, reading an id that equals its slot off ids_
  // with no hash node (auction/slot_index.h). Hot per-run fields are
  // contiguous doubles/ints; the score histories (touched only on
  // ingestion and EM) are one contiguous vector per slot.
  std::vector<auction::WorkerId> ids_;  // registration order
  auction::SlotIndex index_;
  std::vector<double> mean_;         // posterior mean
  std::vector<double> var_;          // posterior variance
  std::vector<double> anchor_mean_;  // window-anchor posterior
  std::vector<double> anchor_var_;
  std::vector<double> a_;  // theta = {a, gamma, eta}
  std::vector<double> gamma_;
  std::vector<double> eta_;
  std::vector<int> runs_since_em_;
  std::vector<int> runs_seen_;      // every observe() call, empty or not
  std::vector<int> observed_runs_;  // runs with at least one score
  std::vector<int> em_count_;
  std::vector<lds::ScoreHistory> history_;  // oldest run first

  // observe_run scratch (slot lookups, the slots each filter chunk found
  // due, all of them in lane order, and the group bounds); never part of
  // the logical state.
  std::vector<std::uint32_t> run_slots_;
  std::vector<std::vector<std::uint32_t>> run_due_;
  std::vector<std::uint32_t> refit_due_;
  std::vector<std::size_t> refit_groups_;
};

}  // namespace melody::estimators
