#include "auction/exact_sra.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace melody::auction {

namespace {

struct Instance {
  std::vector<double> quality;   // mu_i of qualified workers
  std::vector<double> cost;      // c_i
  std::vector<int> frequency;    // n_i
  std::vector<double> threshold; // Q_j, ascending
};

/// Depth-first search: for each task (ascending threshold) either skip it or
/// try every minimal covering subset of workers with remaining frequency.
class Search {
 public:
  Search(const Instance& inst, double budget) : inst_(inst), budget_(budget) {
    remaining_freq_ = inst.frequency;
  }

  std::size_t solve() {
    best_ = 0;
    dfs(0, 0, budget_);
    return best_;
  }

 private:
  void dfs(std::size_t task, std::size_t satisfied, double budget) {
    best_ = std::max(best_, satisfied);
    if (task >= inst_.threshold.size()) return;
    // Bound: even satisfying every remaining task cannot beat the best.
    if (satisfied + (inst_.threshold.size() - task) <= best_) return;

    // Option 1: satisfy this task with some minimal covering subset.
    std::vector<std::size_t> chosen;
    enumerate_covers(task, satisfied, budget, 0, 0.0, 0.0, chosen);

    // Option 2: skip this task.
    dfs(task + 1, satisfied, budget);
  }

  /// Enumerate subsets of workers (by ascending index) whose qualities sum
  /// to >= threshold; recurse into dfs() as soon as coverage is reached, so
  /// only minimal-by-inclusion subsets are expanded.
  void enumerate_covers(std::size_t task, std::size_t satisfied, double budget,
                        std::size_t from, double covered, double spent,
                        std::vector<std::size_t>& chosen) {
    const double required = inst_.threshold[task];
    if (covered >= required) {
      for (std::size_t w : chosen) --remaining_freq_[w];
      dfs(task + 1, satisfied + 1, budget - spent);
      for (std::size_t w : chosen) ++remaining_freq_[w];
      return;
    }
    for (std::size_t w = from; w < inst_.quality.size(); ++w) {
      if (remaining_freq_[w] == 0) continue;
      const double cost = spent + inst_.cost[w];
      if (cost > budget + 1e-12) continue;
      chosen.push_back(w);
      enumerate_covers(task, satisfied, budget, w + 1,
                       covered + inst_.quality[w], cost, chosen);
      chosen.pop_back();
    }
  }

  const Instance& inst_;
  double budget_;
  std::vector<int> remaining_freq_;
  std::size_t best_ = 0;
};

}  // namespace

std::size_t exact_sra_optimum(std::span<const WorkerProfile> workers,
                              std::span<const Task> tasks,
                              const AuctionConfig& config) {
  Instance inst;
  for (const auto& w : workers) {
    if (config.admits(w)) {
      inst.quality.push_back(w.estimated_quality);
      inst.cost.push_back(w.bid.cost);
      inst.frequency.push_back(w.bid.frequency);
    }
  }
  for (const auto& t : tasks) inst.threshold.push_back(t.quality_threshold);
  std::sort(inst.threshold.begin(), inst.threshold.end());

  if (inst.quality.size() > kExactSraMaxWorkers ||
      inst.threshold.size() > kExactSraMaxTasks) {
    throw std::invalid_argument("exact_sra_optimum: instance too large");
  }
  return Search(inst, config.budget).solve();
}

std::size_t exact_sra_optimum(const AuctionContext& context) {
  std::vector<WorkerProfile> book_storage;
  return exact_sra_optimum(resolve_workers(context, book_storage),
                           context.tasks, context.config);
}

}  // namespace melody::auction
