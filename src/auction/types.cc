#include "auction/types.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace melody::auction {

double AuctionConfig::lambda() const noexcept {
  if (cost_min <= 0.0 || theta_min <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return (cost_max * cost_max * (theta_min + theta_max) * theta_max * theta_max) /
         (cost_min * cost_min * theta_min * theta_min * theta_min);
}

double AllocationResult::total_payment() const noexcept {
  double total = 0.0;
  for (const auto& a : assignments) total += a.payment;
  return total;
}

double AllocationResult::payment_to(WorkerId worker) const noexcept {
  double total = 0.0;
  for (const auto& a : assignments) {
    if (a.worker == worker) total += a.payment;
  }
  return total;
}

int AllocationResult::tasks_assigned_to(WorkerId worker) const noexcept {
  int count = 0;
  for (const auto& a : assignments) {
    if (a.worker == worker) ++count;
  }
  return count;
}

std::vector<WorkerId> AllocationResult::workers_of(TaskId task) const {
  std::vector<WorkerId> out;
  for (const auto& a : assignments) {
    if (a.task == task) out.push_back(a.worker);
  }
  return out;
}

bool AllocationResult::is_assigned(WorkerId worker, TaskId task) const noexcept {
  return std::any_of(assignments.begin(), assignments.end(), [&](const auto& a) {
    return a.worker == worker && a.task == task;
  });
}

namespace {

std::string format_violation(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

}  // namespace

std::string check_budget_feasibility(const AllocationResult& result,
                                     const AuctionConfig& config) {
  if (!std::isfinite(config.budget)) return "budget is not finite";
  const double paid = result.total_payment();
  // Tolerate accumulated floating-point rounding of per-assignment payments.
  if (paid > config.budget * (1.0 + 1e-9) + 1e-9) {
    return format_violation("total payment %.6f exceeds budget %.6f", paid,
                            config.budget);
  }
  return {};
}

std::string check_frequency_feasibility(const AllocationResult& result,
                                        std::span<const WorkerProfile> workers) {
  std::unordered_map<WorkerId, int> used;
  for (const auto& a : result.assignments) ++used[a.worker];
  for (const auto& w : workers) {
    const auto it = used.find(w.id);
    const int n = it == used.end() ? 0 : it->second;
    if (n > w.bid.frequency) {
      return format_violation("worker used %.0f times but bid frequency %.0f",
                              n, w.bid.frequency);
    }
    if (it != used.end()) used.erase(it);
  }
  if (!used.empty()) return "assignment references unknown worker id";
  return {};
}

std::string check_task_satisfaction(const AllocationResult& result,
                                    std::span<const WorkerProfile> workers,
                                    std::span<const Task> tasks) {
  std::unordered_map<WorkerId, double> quality;
  for (const auto& w : workers) quality[w.id] = w.estimated_quality;
  std::unordered_map<TaskId, double> received;
  for (const auto& a : result.assignments) {
    const auto it = quality.find(a.worker);
    if (it == quality.end()) return "assignment references unknown worker id";
    received[a.task] += it->second;
  }
  std::unordered_map<TaskId, double> threshold;
  for (const auto& t : tasks) threshold[t.id] = t.quality_threshold;
  for (TaskId selected : result.selected_tasks) {
    const auto th = threshold.find(selected);
    if (th == threshold.end()) return "selected task has unknown id";
    const double got = received[selected];
    if (got + 1e-9 < th->second) {
      return format_violation("selected task received quality %.6f < Q %.6f",
                              got, th->second);
    }
  }
  return {};
}

}  // namespace melody::auction
