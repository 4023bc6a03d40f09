// Expectation-Maximization learner for the per-worker LDS hyper-parameters
// theta = {a, gamma, eta} (Algorithm 2 of the paper).
//
// E-step: RTS smoothing of the latent quality sequence given the current
// theta. M-step: closed-form maximizers of the expected complete-data
// log-likelihood (Eq. 15):
//   a*     = sum_t E[q^t q^{t-1}] / sum_t E[(q^{t-1})^2]
//   gamma* = (1/r) sum_t E[(q^t - a* q^{t-1})^2]
//   eta*   = (1/sum_t N_t) sum_t E[sum_j (s_j - q^t)^2]
//
// One kernel does all of it: it fits up to kEmLanes independent histories
// of equal length at once, one lane each, over per-thread scratch arrays
// that are reused from fit to fit (no allocation once warm; the stop's
// log-likelihood comes from the forward pass the E-step already makes,
// see LogLikelihoodAccumulator). Every lane runs exactly the operation
// sequence of a lone fit, so a lane's result never depends on which other
// histories share its group. fit_lds and smooth are its 1-lane case.
#pragma once

#include <cstddef>
#include <span>

#include "lds/gaussian.h"
#include "lds/kalman.h"

namespace melody::lds {

struct EmOptions {
  int max_iterations = 50;
  /// Stop when an iteration changes the log-likelihood by less than this
  /// many nats, |LL(theta_j) - LL(theta_{j-1})| < tolerance, read off the
  /// E-step's forward pass. A step in nats, unlike one relative to |LL|,
  /// does not loosen as |LL| grows with the history, so a long fit stops
  /// as close to the maximum as a short one; nor does it depend on the
  /// score scale, which shifts LL but not its differences. Zero runs every
  /// fit to max_iterations.
  double tolerance = 0.015;
  /// Floors keep the model proper when the data is degenerate (constant
  /// scores, single run).
  double min_variance = 1e-6;
  /// The transition coefficient is clamped to [-max_abs_a, max_abs_a];
  /// quality dynamics with |a| >> 1 diverge and never fit crowd workers.
  double max_abs_a = 4.0;
};

struct EmResult {
  LdsParams params;
  int iterations = 0;
  /// True when the log-likelihood stop fired; false when the fit ran to
  /// max_iterations (or had no history to fit).
  bool converged = false;
};

/// Number of independent histories the batched kernel interleaves. The
/// forward and RTS passes are serial chains through a division, so one
/// fit is latency-bound; four chains in flight hide most of that latency.
inline constexpr std::size_t kEmLanes = 4;

/// One independent fit of the batched kernel.
struct EmLane {
  Gaussian initial_posterior;
  std::span<const ScoreSet> history;
  LdsParams initial_params;
};

/// Fit 1..kEmLanes lanes whose histories all have the same length; lane k
/// writes results[k], bit-identical to fit_lds on that lane alone. Throws
/// std::invalid_argument on a bad lane count or unequal lengths.
void fit_lds_lanes(std::span<const EmLane> lanes, std::span<EmResult> results,
                   const EmOptions& options = {});

/// Fit theta to one worker's score history by EM, starting from
/// initial_params. The platform-preset initial posterior alpha-hat(q^0)
/// anchors the latent chain and is not itself learned (matching Algorithm 3,
/// where mu-hat^0 / sigma-hat^0 are platform constants).
EmResult fit_lds(const Gaussian& initial_posterior,
                 std::span<const ScoreSet> history, const LdsParams& initial_params,
                 const EmOptions& options = {});

/// One M-step given smoothed moments; exposed for testing.
LdsParams m_step(const Gaussian& initial_posterior,
                 std::span<const ScoreSet> history,
                 const struct SmootherResult& moments, const EmOptions& options);

}  // namespace melody::lds
