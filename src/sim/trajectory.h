// Latent-quality trajectory generators for the four long-term patterns of
// Fig. 1 (rising, declining, fluctuating, stable), plus the paper's
// stability classifier (footnote 4) rescaled to the score range.
//
// A trajectory is a first-order recurrence (a pure shape of the run index
// plus an integrated noise term), so it is generated as a resumable
// TrajectoryStream whose state is O(1) in its length; generate_trajectory
// materializes the same values as an array.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace melody::sim {

enum class TrajectoryKind { kRising, kDeclining, kFluctuating, kStable };

std::string to_string(TrajectoryKind kind);

/// Shape parameters for one worker's latent quality curve on the score
/// scale (the paper's Table 4 uses scores in [1, 10]).
struct TrajectoryConfig {
  TrajectoryKind kind = TrajectoryKind::kStable;
  double start_level = 5.5;   // quality at run 0
  double swing = 3.0;         // total rise/decline, or fluctuation amplitude
  double period = 200.0;      // fluctuation period in runs
  double phase = 0.0;         // fluctuation phase offset in radians
  double noise_stddev = 0.15; // per-run random-walk jitter on the latent state
  double min_quality = 1.0;   // clamp range (mirrors the score range)
  double max_quality = 10.0;
  int horizon = 1000;         // runs over which the rise/decline completes

  bool operator==(const TrajectoryConfig&) const = default;
};

/// One worker's latent quality q^1..q^length, generated one run at a time.
/// Each advance() steps the recurrence of generate_trajectory (one normal
/// draw from the stream's own generator); past `length` the last value is
/// held and nothing is drawn. Stepping a stream built from a copy of `rng`
/// yields the bits generate_trajectory(config, length, rng) returns.
class TrajectoryStream {
 public:
  /// Complete stream state for checkpointing (see util::Rng::State).
  struct State {
    TrajectoryConfig config;
    int length = 0;      // runs the trajectory is generated for
    int run = 0;         // runs generated so far, 0..length
    double drift = 0.0;  // integrated noise after `run` steps
    util::Rng::State rng;

    bool operator==(const State&) const = default;
  };

  /// An empty trajectory: length 0, reads 0.
  TrajectoryStream() = default;

  /// A trajectory of `length` runs drawing its noise from a copy of `rng`
  /// (the caller's generator does not move). Throws std::invalid_argument
  /// on an implausible config or a negative length (as below).
  TrajectoryStream(const TrajectoryConfig& config, int length,
                   const util::Rng& rng);

  /// Resume from a saved state. Throws std::invalid_argument unless the
  /// state is one stepping could produce from a plausible config: a known
  /// kind, finite fields of bounded magnitude (so no step overflows to
  /// Inf or NaN), noise >= 0, period >= 1, min <= max, 0 <= run <= length
  /// and a generator that is not all zero.
  explicit TrajectoryStream(const State& state);

  State state() const noexcept;

  int length() const noexcept { return length_; }
  /// Runs generated so far; value() is q^run().
  int run() const noexcept { return run_; }

  /// q^run(): the quality at the current run, clamped to the config's
  /// range. Reads 0 before run 1 and for an empty trajectory.
  double value() const noexcept;

  /// Generate the next run's value; a no-op once run() == length().
  void advance() noexcept;

  /// Advance until run() == min(run, length()); never steps back.
  void advance_to(int run) noexcept {
    while (run_ < run && run_ < length_) advance();
  }

  /// The stream's own generator, at its current position.
  const util::Rng& rng() const noexcept { return rng_; }

 private:
  TrajectoryConfig config_;
  int length_ = 0;
  int run_ = 0;
  double drift_ = 0.0;  // integrated noise: a slow random walk
  util::Rng rng_;
};

/// Generate `runs` latent quality values q^1..q^runs by stepping a
/// TrajectoryStream; `rng` ends where the stream's generator does. The
/// deterministic shape is perturbed by an integrated (random-walk) noise
/// term so curves resemble Fig. 1 rather than a noisy parametric line.
std::vector<double> generate_trajectory(const TrajectoryConfig& config, int runs,
                                        util::Rng& rng);

/// Stability thresholds (paper footnote 4: slope within [-0.05, 0.05] and
/// variance below 100 on a 0-100 quality scale over ~100-run curves).
/// Rescaled to our [1, 10] score scale (x10) and the 1000-run simulation
/// horizon: a worker who drifts by >= 2 quality points across the horizon
/// (slope 0.002/run) is not stable. With these defaults the sampled
/// population classifies to roughly the paper's 8.5% stable fraction.
struct StabilityCriteria {
  double max_abs_slope = 0.002;
  double max_variance = 1.0;
};

/// True iff the quality curve is "stable" per the paper's definition.
bool is_stable(std::span<const double> quality, const StabilityCriteria& c = {});

/// Population mix used by the long-term experiments. The paper reports
/// 8.5% stable workers; the remainder is split across the dynamic patterns.
struct PopulationMix {
  double rising = 0.305;
  double declining = 0.305;
  double fluctuating = 0.305;
  double stable = 0.085;
};

/// Sample a trajectory kind according to the mix.
TrajectoryKind sample_kind(const PopulationMix& mix, util::Rng& rng);

/// Sample a full TrajectoryConfig of the given kind with randomized shape
/// parameters (start level, swing, period, phase) appropriate for the kind.
TrajectoryConfig sample_config(TrajectoryKind kind, int horizon, util::Rng& rng);

}  // namespace melody::sim
