#include "perf/reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "lds/em.h"
#include "util/binio.h"

namespace melody::perf::reference {

namespace {

// The EM learner as it stood before the batched lane kernel: one
// allocating RTS smoother pass, a closed-form M-step through accessor
// calls, and a full forward filter per iteration for the log-likelihood
// trace, whose step is the stop. Frozen here so the production kernel is
// compared against different code, bit for bit, and timed against the
// real old cost.

struct FrozenMoments {
  std::vector<lds::Gaussian> smoothed;
  std::vector<double> cross_covariance;

  double mean(std::size_t t) const { return smoothed.at(t).mean; }
  double second_moment(std::size_t t) const {
    const lds::Gaussian& g = smoothed.at(t);
    return g.var + g.mean * g.mean;
  }
  double cross_moment(std::size_t t) const {
    return cross_covariance.at(t) +
           smoothed.at(t - 1).mean * smoothed.at(t).mean;
  }
};

FrozenMoments frozen_smooth(const lds::Gaussian& initial_posterior,
                            std::span<const lds::ScoreSet> history,
                            const lds::LdsParams& params) {
  params.validate();
  const std::size_t r = history.size();
  std::vector<lds::Gaussian> filtered(r + 1);
  std::vector<lds::Gaussian> predicted(r + 1);
  filtered[0] = initial_posterior;
  predicted[0] = initial_posterior;
  for (std::size_t t = 1; t <= r; ++t) {
    predicted[t] = lds::predict(filtered[t - 1], params);
    filtered[t] = lds::correct(predicted[t], history[t - 1], params);
  }
  FrozenMoments result;
  result.smoothed.assign(r + 1, lds::Gaussian{});
  result.cross_covariance.assign(r + 1, 0.0);
  result.smoothed[r] = filtered[r];
  for (std::size_t t = r; t > 0; --t) {
    const lds::Gaussian& f = filtered[t - 1];
    const double p_next = predicted[t].var;
    const double gain = params.a * f.var / p_next;
    const lds::Gaussian& next = result.smoothed[t];
    result.smoothed[t - 1] = {f.mean + gain * (next.mean - params.a * f.mean),
                              f.var + gain * gain * (next.var - p_next)};
    result.cross_covariance[t] = gain * next.var;
  }
  return result;
}

lds::LdsParams frozen_m_step(std::span<const lds::ScoreSet> history,
                             const FrozenMoments& moments,
                             const lds::EmOptions& options) {
  const std::size_t r = history.size();
  lds::LdsParams out;
  double cross_sum = 0.0;
  double prev_sq_sum = 0.0;
  for (std::size_t t = 1; t <= r; ++t) {
    cross_sum += moments.cross_moment(t);
    prev_sq_sum += moments.second_moment(t - 1);
  }
  out.a = prev_sq_sum > 0.0 ? cross_sum / prev_sq_sum : 1.0;
  out.a = std::clamp(out.a, -options.max_abs_a, options.max_abs_a);
  double gamma_sum = 0.0;
  for (std::size_t t = 1; t <= r; ++t) {
    gamma_sum += moments.second_moment(t) -
                 2.0 * out.a * moments.cross_moment(t) +
                 out.a * out.a * moments.second_moment(t - 1);
  }
  out.gamma = r > 0 ? gamma_sum / static_cast<double>(r) : 1.0;
  out.gamma = std::max(out.gamma, options.min_variance);
  double eta_sum = 0.0;
  double observations = 0.0;
  for (std::size_t t = 1; t <= r; ++t) {
    const lds::ScoreSet& s = history[t - 1];
    if (s.empty()) continue;
    eta_sum += s.sum_squares - 2.0 * s.sum * moments.mean(t) +
               s.count * moments.second_moment(t);
    observations += s.count;
  }
  out.eta = observations > 0.0 ? eta_sum / observations : 1.0;
  out.eta = std::max(out.eta, options.min_variance);
  return out;
}

lds::LdsParams frozen_fit_lds(const lds::Gaussian& initial_posterior,
                              std::span<const lds::ScoreSet> history,
                              const lds::LdsParams& initial_params,
                              const lds::EmOptions& options) {
  lds::LdsParams params = initial_params;
  params.gamma = std::max(params.gamma, options.min_variance);
  params.eta = std::max(params.eta, options.min_variance);
  if (history.empty()) return params;
  std::vector<double> log_likelihood_trace;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const FrozenMoments moments =
        frozen_smooth(initial_posterior, history, params);
    const lds::LdsParams updated = frozen_m_step(history, moments, options);
    log_likelihood_trace.push_back(
        lds::log_likelihood(initial_posterior, history, updated));
    const double ll = log_likelihood_trace.back();
    const bool converged =
        iter >= 1 &&
        std::abs(ll - log_likelihood_trace[iter - 1]) < options.tolerance;
    params = updated;
    if (converged) break;
  }
  return params;
}

}  // namespace

std::vector<const auction::WorkerProfile*> build_ranking_queue(
    std::span<const auction::WorkerProfile> workers,
    const auction::AuctionConfig& config) {
  std::vector<const auction::WorkerProfile*> queue;
  queue.reserve(workers.size());
  for (const auto& w : workers) {
    if (w.bid.cost > 0.0 && w.bid.frequency > 0 && w.estimated_quality > 0.0 &&
        config.qualifies(w)) {
      queue.push_back(&w);
    }
  }
  std::sort(queue.begin(), queue.end(),
            [](const auction::WorkerProfile* a,
               const auction::WorkerProfile* b) {
              const double ra = a->estimated_quality / a->bid.cost;
              const double rb = b->estimated_quality / b->bid.cost;
              if (ra != rb) return ra > rb;
              return a->id < b->id;
            });
  return queue;
}

std::vector<PreAllocation> pre_allocate(
    const std::vector<const auction::WorkerProfile*>& queue,
    std::span<const auction::Task> tasks, auction::PaymentRule rule) {
  auto ratio_of = [&](std::size_t pos) {
    return queue[pos]->bid.cost / queue[pos]->estimated_quality;
  };

  std::vector<std::size_t> task_order(tasks.size());
  std::iota(task_order.begin(), task_order.end(), std::size_t{0});
  std::sort(task_order.begin(), task_order.end(),
            [&](std::size_t a, std::size_t b) {
              if (tasks[a].quality_threshold != tasks[b].quality_threshold) {
                return tasks[a].quality_threshold < tasks[b].quality_threshold;
              }
              return tasks[a].id < tasks[b].id;
            });

  std::vector<int> available(queue.size());
  for (std::size_t i = 0; i < queue.size(); ++i) {
    available[i] = queue[i]->bid.frequency;
  }

  std::vector<PreAllocation> pre;
  pre.reserve(tasks.size());
  for (std::size_t task_index : task_order) {
    const double required = tasks[task_index].quality_threshold;

    PreAllocation p;
    p.task_index = task_index;
    double covered = 0.0;
    std::size_t k = 0;
    while (k < queue.size() && covered < required) {
      if (available[k] > 0) {
        covered += queue[k]->estimated_quality;
        p.winners.push_back(k);
      }
      ++k;
    }
    if (covered < required) continue;

    bool priceable = true;
    p.payments.reserve(p.winners.size());
    if (rule == auction::PaymentRule::kPaperNextInQueue) {
      if (k >= queue.size()) continue;
      const double ratio = ratio_of(k);
      for (std::size_t widx : p.winners) {
        p.payments.push_back(ratio * queue[widx]->estimated_quality);
      }
    } else {
      p.payments.assign(p.winners.size(), 0.0);
      for (std::size_t w = 0; w < p.winners.size(); ++w) {
        const std::size_t widx = p.winners[w];
        double cumulative = 0.0;
        std::size_t pos = 0;
        while (pos < queue.size()) {
          if (pos != widx && available[pos] > 0) {
            cumulative += queue[pos]->estimated_quality;
            if (cumulative >= required) break;
          }
          ++pos;
        }
        if (pos >= queue.size()) {
          priceable = false;
          break;
        }
        p.payments[w] = ratio_of(pos) * queue[widx]->estimated_quality;
      }
    }
    if (!priceable) continue;

    for (std::size_t w = 0; w < p.winners.size(); ++w) {
      p.total_payment += p.payments[w];
      --available[p.winners[w]];
    }
    pre.push_back(std::move(p));
  }

  std::sort(pre.begin(), pre.end(),
            [&](const PreAllocation& a, const PreAllocation& b) {
              if (a.total_payment != b.total_payment) {
                return a.total_payment < b.total_payment;
              }
              return tasks[a.task_index].id < tasks[b.task_index].id;
            });
  return pre;
}

auction::AllocationResult run_greedy(
    std::span<const auction::WorkerProfile> workers,
    std::span<const auction::Task> tasks,
    const auction::AuctionConfig& config, auction::PaymentRule rule) {
  const auto queue = build_ranking_queue(workers, config);
  const auto pre = pre_allocate(queue, tasks, rule);

  auction::AllocationResult result;
  double remaining = config.budget;
  for (const auto& p : pre) {
    if (p.total_payment > remaining) break;
    remaining -= p.total_payment;
    result.selected_tasks.push_back(tasks[p.task_index].id);
    for (std::size_t w = 0; w < p.winners.size(); ++w) {
      result.assignments.push_back({queue[p.winners[w]]->id,
                                    tasks[p.task_index].id, p.payments[w]});
    }
  }
  return result;
}

void AosKalmanChain::register_worker(auction::WorkerId id) {
  State state;
  state.posterior = config_.initial_posterior;
  state.params = config_.initial_params;
  state.window_anchor = config_.initial_posterior;
  states_.try_emplace(id, std::move(state));
}

void AosKalmanChain::observe(auction::WorkerId id,
                             const lds::ScoreSet& scores) {
  State& state = states_.at(id);
  ++state.runs_seen;
  if (scores.empty() && !config_.advance_on_empty_runs) return;
  state.history.push_back(scores);
  if (!scores.empty()) ++state.observed_runs;
  if (config_.max_history > 0 &&
      static_cast<int>(state.history.size()) > config_.max_history) {
    state.window_anchor = lds::filter_step(state.window_anchor,
                                           state.history.front(), state.params);
    state.history.erase(state.history.begin());
  }

  state.posterior = lds::filter_step(state.posterior, scores, state.params);

  ++state.runs_since_em;
  if (config_.reestimation_period > 0 &&
      state.runs_since_em >= config_.reestimation_period &&
      state.observed_runs >= config_.min_history_for_em) {
    state.params = frozen_fit_lds(state.window_anchor, state.history,
                                  state.params, config_.em_options);
    state.runs_since_em = 0;
    ++state.em_count;
    if (config_.refilter_after_em) {
      state.posterior =
          lds::filter(state.window_anchor, state.history, state.params)
              .posteriors.back();
    }
  }
  state.posterior.mean = std::clamp(state.posterior.mean,
                                    config_.estimate_min, config_.estimate_max);
}

double AosKalmanChain::estimate(auction::WorkerId id) const {
  const State& state = states_.at(id);
  double estimate = state.params.a * state.posterior.mean;
  if (config_.exploration_beta > 0.0) {
    estimate += config_.exploration_beta *
                std::sqrt(std::log(state.runs_seen + 1.0) /
                          (state.observed_runs + 1.0));
  }
  return std::clamp(estimate, config_.estimate_min, config_.estimate_max);
}

void AosKalmanChain::save(util::binio::Writer& out) const {
  std::vector<auction::WorkerId> ids;
  ids.reserve(states_.size());
  for (const auto& [id, state] : states_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  out.write_header(estimators::MelodyEstimator::kBlobMagic,
                   estimators::MelodyEstimator::kBlobVersion);
  out.write_u64(ids.size());
  for (auction::WorkerId id : ids) {
    const State& s = states_.at(id);
    out.write_i32(id);
    for (const double v :
         {s.posterior.mean, s.posterior.var, s.window_anchor.mean,
          s.window_anchor.var, s.params.a, s.params.gamma, s.params.eta}) {
      out.write_f64(v);
    }
    for (const int v :
         {s.runs_since_em, s.runs_seen, s.observed_runs, s.em_count}) {
      out.write_i32(v);
    }
    out.write_u32(static_cast<std::uint32_t>(s.history.size()));
    for (const lds::ScoreSet& set : s.history) {
      out.write_i32(set.count);
      out.write_f64(set.sum);
      out.write_f64(set.sum_squares);
    }
  }
}

}  // namespace melody::perf::reference
