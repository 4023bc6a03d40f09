#include "lds/em.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "lds/smoother.h"

namespace melody::lds {

namespace {

/// Per-thread scratch of the lane kernel. Every array is interleaved by
/// lane, entry [t * L + l] holding step t of lane l, so the L chains of a
/// group advance through one cache line together. The arrays only grow:
/// once a thread has fitted its longest history, fits allocate nothing.
struct Workspace {
  std::vector<double> filtered_mean;  // alpha-hat(q^t)
  std::vector<double> filtered_var;
  std::vector<double> predicted_var;  // Var(q^t | S^1..t-1)
  std::vector<double> smoothed_mean;  // p(q^t | all scores)
  std::vector<double> smoothed_var;
  std::vector<double> cross_cov;  // Cov(q^{t-1}, q^t | all scores), t >= 1

  void fit(std::size_t n) {
    if (filtered_mean.size() >= n) return;
    for (std::vector<double>* v : {&filtered_mean, &filtered_var,
                                   &predicted_var, &smoothed_mean,
                                   &smoothed_var, &cross_cov}) {
      v->resize(n);
    }
  }
};

Workspace& workspace() {
  static thread_local Workspace ws;
  return ws;
}

/// E-step for L lanes: Kalman forward pass over q^0..q^r through the
/// shared predict/correct, accumulating each lane's log-likelihood under
/// its current theta, then the RTS backward pass. With smoothing gain
///   J_t = a * Var(q^t | S^1..t) / Var(q^{t+1} | S^1..t):
///   mean:  m~_t = m_t + J_t (m~_{t+1} - a m_t)
///   var:   v~_t = v_t + J_t^2 (v~_{t+1} - P_{t+1})
///   cross: Cov(q^t, q^{t+1} | all) = J_t * v~_{t+1}
/// q^0 carries no observation: its filtered posterior is the preset one.
template <std::size_t L>
void e_step(const Gaussian* initial, const ScoreSet* const* history,
            const LdsParams* params, std::size_t r, Workspace& ws,
            LogLikelihoodAccumulator* log_likelihood) {
  double* fm = ws.filtered_mean.data();
  double* fv = ws.filtered_var.data();
  double* pv = ws.predicted_var.data();
  double* sm = ws.smoothed_mean.data();
  double* sv = ws.smoothed_var.data();
  double* cc = ws.cross_cov.data();

  double mean[L];
  double var[L];
  for (std::size_t l = 0; l < L; ++l) {
    mean[l] = fm[l] = initial[l].mean;
    var[l] = fv[l] = initial[l].var;
  }
  for (std::size_t t = 1; t <= r; ++t) {
    for (std::size_t l = 0; l < L; ++l) {
      const Gaussian prior = predict({mean[l], var[l]}, params[l]);
      const ScoreSet& scores = history[l][t - 1];
      log_likelihood[l].add(prior, scores, params[l]);
      const Gaussian post = correct(prior, scores, params[l]);
      pv[t * L + l] = prior.var;
      mean[l] = fm[t * L + l] = post.mean;
      var[l] = fv[t * L + l] = post.var;
    }
  }

  // mean/var now carry the smoothed step t (initially the last filtered).
  for (std::size_t l = 0; l < L; ++l) {
    sm[r * L + l] = mean[l];
    sv[r * L + l] = var[l];
  }
  for (std::size_t t = r; t > 0; --t) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t prev = (t - 1) * L + l;
      const double a = params[l].a;
      const double f_mean = fm[prev];
      const double f_var = fv[prev];
      const double p_next = pv[t * L + l];
      const double gain = a * f_var / p_next;
      cc[t * L + l] = gain * var[l];
      mean[l] = sm[prev] = f_mean + gain * (mean[l] - a * f_mean);
      var[l] = sv[prev] = f_var + gain * gain * (var[l] - p_next);
    }
  }
}

/// M-step for L lanes from the smoothed moments in `ws`, every sum
/// accumulated in ascending t:
///   E[q^t]         = m~_t
///   E[(q^t)^2]     = v~_t + m~_t^2
///   E[q^{t-1} q^t] = Cov(q^{t-1}, q^t) + m~_{t-1} m~_t
template <std::size_t L>
void m_step_lanes(const ScoreSet* const* history, std::size_t r,
                  const Workspace& ws, const HistoryTotals* totals,
                  const EmOptions& options, LdsParams* out) {
  const double* sm = ws.smoothed_mean.data();
  const double* sv = ws.smoothed_var.data();
  const double* cc = ws.cross_cov.data();

  // a* = sum_t E[q^t q^{t-1}] / sum_t E[(q^{t-1})^2]; the eta* numerator
  // sum_t (SS_t - 2 S_t E[q_t] + N_t E[q_t^2]) rides along.
  double cross_sum[L] = {};
  double prev_sq_sum[L] = {};
  double eta_sum[L] = {};
  for (std::size_t t = 1; t <= r; ++t) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t prev = (t - 1) * L + l;
      const std::size_t cur = t * L + l;
      cross_sum[l] += cc[cur] + sm[prev] * sm[cur];
      prev_sq_sum[l] += sv[prev] + sm[prev] * sm[prev];
      const ScoreSet& s = history[l][t - 1];
      if (!s.empty()) {
        eta_sum[l] += s.sum_squares - 2.0 * s.sum * sm[cur] +
                      s.count * (sv[cur] + sm[cur] * sm[cur]);
      }
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    out[l].a = prev_sq_sum[l] > 0.0 ? cross_sum[l] / prev_sq_sum[l] : 1.0;
    out[l].a = std::clamp(out[l].a, -options.max_abs_a, options.max_abs_a);
  }

  // gamma* = (1/r) sum_t (E[q_t^2] - 2a E[q_t q_{t-1}] + a^2 E[q_{t-1}^2]).
  double gamma_sum[L] = {};
  for (std::size_t t = 1; t <= r; ++t) {
    for (std::size_t l = 0; l < L; ++l) {
      const std::size_t prev = (t - 1) * L + l;
      const std::size_t cur = t * L + l;
      const double a = out[l].a;
      gamma_sum[l] += (sv[cur] + sm[cur] * sm[cur]) -
                      2.0 * a * (cc[cur] + sm[prev] * sm[cur]) +
                      a * a * (sv[prev] + sm[prev] * sm[prev]);
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    out[l].gamma = r > 0 ? gamma_sum[l] / static_cast<double>(r) : 1.0;
    out[l].gamma = std::max(out[l].gamma, options.min_variance);
    out[l].eta =
        totals[l].observations > 0.0 ? eta_sum[l] / totals[l].observations
                                     : 1.0;
    out[l].eta = std::max(out[l].eta, options.min_variance);
  }
}

/// The EM loop over L lanes. Pass j filters under theta_j, which yields
/// LL(theta_j) from the forward pass; a lane stops at pass j >= 2 when
///   |LL(theta_j) - LL(theta_{j-1})| < tolerance
/// and keeps theta_j, so a stopped fit has run j M-steps. (From pass 2 on,
/// so the earliest stop compares the likelihoods of two EM updates, not
/// of an update against the starting guess.) A lane that does not stop
/// within max_iterations M-steps keeps theta_{max_iterations}. A stopped
/// lane is masked: it still rides through the arithmetic (so the group
/// needs no branch per lane), but its parameters and iteration count are
/// frozen.
template <std::size_t L>
void fit_lanes(const EmLane* lanes, EmResult* results,
               const EmOptions& options) {
  const std::size_t r = lanes[0].history.size();
  Gaussian initial[L];
  const ScoreSet* history[L];
  LdsParams params[L];
  HistoryTotals totals[L];
  double previous_ll[L];
  bool active[L];
  for (std::size_t l = 0; l < L; ++l) {
    initial[l] = lanes[l].initial_posterior;
    history[l] = lanes[l].history.data();
    params[l] = lanes[l].initial_params;
    params[l].gamma = std::max(params[l].gamma, options.min_variance);
    params[l].eta = std::max(params[l].eta, options.min_variance);
    totals[l] = HistoryTotals::of(lanes[l].history);
    previous_ll[l] = 0.0;
    active[l] = true;
    results[l] = {params[l], 0, false};
  }
  if (r == 0) return;

  Workspace& ws = workspace();
  ws.fit((r + 1) * L);
  std::size_t remaining = L;
  for (int iter = 0; iter < options.max_iterations && remaining > 0; ++iter) {
    for (std::size_t l = 0; l < L; ++l) {
      if (active[l]) params[l].validate();
    }
    LogLikelihoodAccumulator log_likelihood[L];
    e_step<L>(initial, history, params, r, ws, log_likelihood);
    for (std::size_t l = 0; l < L; ++l) {
      if (!active[l]) continue;
      const double ll = log_likelihood[l].total(totals[l], params[l]);
      if (iter >= 2 &&
          std::abs(ll - previous_ll[l]) < options.tolerance) {
        active[l] = false;
        results[l].converged = true;
        --remaining;
      }
      previous_ll[l] = ll;
    }
    if (remaining == 0) break;
    LdsParams updated[L];
    m_step_lanes<L>(history, r, ws, totals, options, updated);
    for (std::size_t l = 0; l < L; ++l) {
      if (!active[l]) continue;
      ++results[l].iterations;
      params[l] = updated[l];
    }
  }
  for (std::size_t l = 0; l < L; ++l) results[l].params = params[l];
}

}  // namespace

void fit_lds_lanes(std::span<const EmLane> lanes, std::span<EmResult> results,
                   const EmOptions& options) {
  if (lanes.empty() || lanes.size() > kEmLanes ||
      results.size() != lanes.size()) {
    throw std::invalid_argument("fit_lds_lanes: need 1..kEmLanes lanes");
  }
  for (const EmLane& lane : lanes) {
    if (lane.history.size() != lanes[0].history.size()) {
      throw std::invalid_argument("fit_lds_lanes: unequal history lengths");
    }
  }
  static_assert(kEmLanes == 4);
  switch (lanes.size()) {
    case 1: fit_lanes<1>(lanes.data(), results.data(), options); break;
    case 2: fit_lanes<2>(lanes.data(), results.data(), options); break;
    case 3: fit_lanes<3>(lanes.data(), results.data(), options); break;
    default: fit_lanes<4>(lanes.data(), results.data(), options); break;
  }
}

EmResult fit_lds(const Gaussian& initial_posterior,
                 std::span<const ScoreSet> history,
                 const LdsParams& initial_params, const EmOptions& options) {
  const EmLane lane{initial_posterior, history, initial_params};
  EmResult result;
  fit_lanes<1>(&lane, &result, options);
  return result;
}

LdsParams m_step(const Gaussian& initial_posterior,
                 std::span<const ScoreSet> history,
                 const SmootherResult& moments, const EmOptions& options) {
  (void)initial_posterior;  // the q^0 prior is fixed, not re-estimated
  const std::size_t r = history.size();
  Workspace& ws = workspace();
  ws.fit(r + 1);
  for (std::size_t t = 0; r > 0 && t <= r; ++t) {
    ws.smoothed_mean[t] = moments.smoothed.at(t).mean;
    ws.smoothed_var[t] = moments.smoothed.at(t).var;
    if (t > 0) ws.cross_cov[t] = moments.cross_covariance.at(t);
  }
  const ScoreSet* data = history.data();
  const HistoryTotals totals = HistoryTotals::of(history);
  LdsParams out;
  m_step_lanes<1>(&data, r, ws, &totals, options, &out);
  return out;
}

SmootherResult smooth(const Gaussian& initial_posterior,
                      std::span<const ScoreSet> history,
                      const LdsParams& params) {
  params.validate();
  const std::size_t r = history.size();
  Workspace& ws = workspace();
  ws.fit(r + 1);
  const ScoreSet* data = history.data();
  LogLikelihoodAccumulator log_likelihood;
  e_step<1>(&initial_posterior, &data, &params, r, ws, &log_likelihood);
  SmootherResult result;
  result.smoothed.resize(r + 1);
  result.cross_covariance.assign(r + 1, 0.0);
  for (std::size_t t = 0; t <= r; ++t) {
    result.smoothed[t] = {ws.smoothed_mean[t], ws.smoothed_var[t]};
    if (t > 0) result.cross_covariance[t] = ws.cross_cov[t];
  }
  return result;
}

}  // namespace melody::lds
