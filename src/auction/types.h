// Core value types for the single-run reverse auction (SRA problem,
// Definition 4 of the paper) shared by every mechanism implementation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace melody::auction {

using WorkerId = std::int32_t;
using TaskId = std::int32_t;

/// A worker's submitted bid: per-task cost c_i and maximum number of tasks
/// (frequency) n_i he is willing to complete in this run.
struct Bid {
  double cost = 0.0;
  int frequency = 0;

  bool operator==(const Bid&) const = default;
};

/// The platform-side view of one worker entering an auction run: his bid
/// plus the platform's current estimate mu_i = E[alpha(q_i^r)] of his
/// quality. True (latent) quality lives in the simulation layer, never here:
/// mechanisms must only see what a real platform would see.
struct WorkerProfile {
  WorkerId id = -1;
  Bid bid;
  double estimated_quality = 0.0;  // mu_i
};

/// One crowdsourcing task with its integrated-quality threshold Q_j
/// (Definition 2: satisfied iff sum of assigned workers' mu_i >= Q_j).
struct Task {
  TaskId id = -1;
  double quality_threshold = 0.0;  // Q_j
};

/// Per-run auction parameters: the requester's budget B and the platform's
/// qualification intervals [Theta_m, Theta_M] (quality) and [C_m, C_M]
/// (cost), which define the qualified worker set W^r (Algorithm 1, line 1).
struct AuctionConfig {
  double budget = 0.0;
  double theta_min = 0.0;
  double theta_max = std::numeric_limits<double>::infinity();
  double cost_min = 0.0;
  double cost_max = std::numeric_limits<double>::infinity();

  /// True iff the worker passes the qualification filter of Alg. 1 line 1.
  bool qualifies(const WorkerProfile& w) const noexcept {
    return qualifies(w.estimated_quality, w.bid.cost);
  }

  /// Value-form qualification filter for callers that hold quality/cost in
  /// structure-of-arrays form (e.g. the bid-book ladder image) — exactly the
  /// same comparisons as the profile overload.
  bool qualifies(double estimated_quality, double cost) const noexcept {
    return estimated_quality >= theta_min && estimated_quality <= theta_max &&
           cost >= cost_min && cost <= cost_max;
  }

  /// True iff a bid enters an auction run: it passes the qualification
  /// filter, and its cost, quality and frequency are positive and finite.
  /// The one admission check of every mechanism: a bid it admits has a
  /// finite, positive density cost / quality, so no payment priced from
  /// it can be NaN even under the default unbounded [C_m, C_M] and
  /// [Theta_m, Theta_M].
  bool admits(double estimated_quality, double cost,
              int frequency) const noexcept {
    return frequency > 0 && cost > 0.0 && estimated_quality > 0.0 &&
           std::isfinite(cost) && std::isfinite(estimated_quality) &&
           qualifies(estimated_quality, cost);
  }
  bool admits(const WorkerProfile& w) const noexcept {
    return admits(w.estimated_quality, w.bid.cost, w.bid.frequency);
  }

  /// True iff an auction run can be priced against this config and these
  /// tasks: the budget and every task's quality threshold are finite. The
  /// market-side twin of admits(), checked once where a mechanism's run
  /// starts: a NaN or infinite budget never stops the commit stage, and a
  /// NaN or -inf threshold counts a task as satisfied.
  bool accepts(std::span<const Task> tasks) const noexcept {
    return std::isfinite(budget) &&
           std::all_of(tasks.begin(), tasks.end(), [](const Task& t) {
             return std::isfinite(t.quality_threshold);
           });
  }

  /// The theoretical approximation constant lambda of Lemma 3:
  /// C_M^2 (Theta_m + Theta_M) Theta_M^2 / (C_m^2 Theta_m^3).
  double lambda() const noexcept;
};

/// One winning (worker, task) pair with its payment p_{i,j}.
struct Assignment {
  WorkerId worker = -1;
  TaskId task = -1;
  double payment = 0.0;
};

/// Outcome of one auction run: the allocation scheme X and payment scheme P
/// restricted to winners, plus the list of selected (satisfied) tasks.
struct AllocationResult {
  std::vector<Assignment> assignments;
  std::vector<TaskId> selected_tasks;

  /// Requester's (estimated) utility U^r: every selected task is satisfied
  /// with respect to estimated quality by construction.
  std::size_t requester_utility() const noexcept { return selected_tasks.size(); }

  /// Total payment across all assignments (must be <= budget).
  double total_payment() const noexcept;

  /// Sum of payments made to one worker.
  double payment_to(WorkerId worker) const noexcept;

  /// Number of tasks assigned to one worker (<= his bid frequency).
  int tasks_assigned_to(WorkerId worker) const noexcept;

  /// Workers assigned to one task.
  std::vector<WorkerId> workers_of(TaskId task) const;

  /// True iff the given (worker, task) pair won.
  bool is_assigned(WorkerId worker, TaskId task) const noexcept;
};

/// Validation helpers shared by tests and mechanisms. Each returns an empty
/// string when the result is valid, otherwise a human-readable violation.
std::string check_budget_feasibility(const AllocationResult& result,
                                     const AuctionConfig& config);
std::string check_frequency_feasibility(const AllocationResult& result,
                                        std::span<const WorkerProfile> workers);
std::string check_task_satisfaction(const AllocationResult& result,
                                    std::span<const WorkerProfile> workers,
                                    std::span<const Task> tasks);

}  // namespace melody::auction
