// Deterministic fault injection for the long-term platform simulation: the
// messy realities of worker participation — no-shows, dropped or corrupted
// scores, mid-history churn — expressed as a declarative plan and generated
// from counter-based RNG streams, so a faulted simulation is exactly as
// reproducible as a clean one (bit-identical at any thread count, and
// across checkpoint/resume).
//
// Stream derivation: all fault decisions are pure functions of
// (master_seed, plan.salt, worker, run), never of thread scheduling or of
// the sequential platform RNG:
//   fault_master          = derive_stream(master_seed, plan.salt)
//   churn window (worker) = Rng(derive_stream(fault_master, worker, 0))
//   absence  (worker,run) = Rng(derive_stream(fault_master, worker, 2r))
//   scores   (worker,run) = Rng(derive_stream(fault_master, worker, 2r+1))
// Runs are 1-based, so substream 0 is reserved for the per-worker churn
// window; absence and score faults get disjoint odd/even substreams so the
// two stages never replay each other's draws.
#pragma once

#include <cstdint>
#include <string>

#include "auction/types.h"
#include "lds/gaussian.h"
#include "sim/score_gen.h"
#include "util/rng.h"

namespace melody::sim {

/// Declarative description of the failure modes injected into a
/// simulation. The default-constructed plan is inactive (no faults).
struct FaultPlan {
  /// Per (worker, run) probability that the worker skips the run entirely:
  /// no bid, no assignments, no scores (the estimator sees an empty set).
  double no_show_rate = 0.0;
  /// Per-score probability that a score is lost before the platform sees
  /// it (scored-but-dropped observations).
  double score_drop_rate = 0.0;
  /// Per surviving score, probability that it is replaced by an outlier
  /// pinned to the score range's extremes.
  double score_corrupt_rate = 0.0;
  /// Per-worker probability of one mid-history departure: the worker is
  /// absent for a contiguous window of runs, then returns.
  double churn_rate = 0.0;
  /// Bounds on the churn absence window length, in runs.
  int churn_min_absence = 10;
  int churn_max_absence = 100;
  /// Salt separating the fault streams from the score streams (and one
  /// fault experiment from another under the same master seed).
  std::uint64_t salt = 0x4641554c54ULL;  // "FAULT"

  /// True iff any failure mode has a non-zero rate.
  bool active() const noexcept;

  /// Throws std::invalid_argument if a rate is outside [0, 1] or the churn
  /// window bounds are inverted or non-positive.
  void validate() const;

  /// Parse a comma-separated spec, e.g.
  ///   "no-show=0.05,drop=0.1,corrupt=0.02,churn=0.1,churn-min=5,churn-max=50"
  /// Keys: no-show, drop, corrupt, churn, churn-min, churn-max, salt. An
  /// empty spec yields the inactive plan. Throws std::invalid_argument on
  /// unknown keys, malformed values, or out-of-range rates.
  static FaultPlan parse(const std::string& spec);

  /// Canonical spec string (parse(describe()) round-trips the plan; the
  /// salt is written as the signed value parse reads).
  std::string describe() const;

  bool operator==(const FaultPlan&) const = default;
};

/// Why a worker is missing from a run (kPresent when he is not).
enum class Absence { kPresent, kNoShow, kChurned };

/// Deterministic absence decision for (worker, run). `horizon` is the
/// scenario's total run count and bounds where a churn window may start.
/// Churn is checked first: a churned-out worker is reported kChurned even
/// if his no-show coin also fired.
Absence absence_for(const FaultPlan& plan, std::uint64_t master_seed,
                    auction::WorkerId worker, int run, int horizon);

/// Tallies of the per-score faults applied to one (worker, run).
struct ScoreFaultCounts {
  int dropped = 0;
  int corrupted = 0;
};

/// Generate the score set for a worker who completed `task_count` tasks,
/// layering the plan's per-score faults over the clean emission model.
/// Scores are drawn from `score_stream` exactly as the un-faulted path
/// does; drop/corrupt decisions (and outlier values) come from the
/// separate per-(worker, run) fault stream, so enabling faults never
/// perturbs which base scores are drawn.
lds::ScoreSet generate_faulted_scores(const FaultPlan& plan,
                                      const ScoreModel& model,
                                      double latent_quality, int task_count,
                                      util::Rng& score_stream,
                                      std::uint64_t master_seed,
                                      auction::WorkerId worker, int run,
                                      ScoreFaultCounts& counts);

}  // namespace melody::sim
