#include "auction/opt_ub.h"

#include <algorithm>
#include <vector>

namespace melody::auction {

std::size_t opt_upper_bound(std::span<const WorkerProfile> workers,
                            std::span<const Task> tasks,
                            const AuctionConfig& config) {
  // Pooled fractional supply: (quality units, cost density) per worker.
  struct Supply {
    double quality;  // n_i * mu_i
    double density;  // c_i / mu_i
  };
  std::vector<Supply> supply;
  supply.reserve(workers.size());
  for (const auto& w : workers) {
    if (config.admits(w)) {
      supply.push_back({w.estimated_quality * w.bid.frequency,
                        w.bid.cost / w.estimated_quality});
    }
  }
  std::sort(supply.begin(), supply.end(),
            [](const Supply& a, const Supply& b) { return a.density < b.density; });

  std::vector<double> thresholds;
  thresholds.reserve(tasks.size());
  for (const auto& t : tasks) thresholds.push_back(t.quality_threshold);
  std::sort(thresholds.begin(), thresholds.end());

  // Fill tasks cheapest-first from the cheapest remaining supply.
  double budget = config.budget;
  std::size_t next_supply = 0;
  double supply_left = supply.empty() ? 0.0 : supply[0].quality;
  std::size_t satisfied = 0;
  for (double required : thresholds) {
    double cost = 0.0;
    // Tentatively consume supply; snapshot for rollback if unaffordable.
    const std::size_t snap_index = next_supply;
    const double snap_left = supply_left;
    double need = required;
    while (need > 0.0 && next_supply < supply.size()) {
      const double take = std::min(need, supply_left);
      cost += take * supply[next_supply].density;
      need -= take;
      supply_left -= take;
      if (supply_left <= 0.0) {
        ++next_supply;
        supply_left =
            next_supply < supply.size() ? supply[next_supply].quality : 0.0;
      }
    }
    if (need > 1e-12 || cost > budget + 1e-9) {
      // Out of supply or budget: no further (larger) task can be satisfied.
      next_supply = snap_index;
      supply_left = snap_left;
      break;
    }
    budget -= cost;
    ++satisfied;
  }
  return satisfied;
}

std::size_t opt_upper_bound(const AuctionContext& context) {
  std::vector<WorkerProfile> book_storage;
  return opt_upper_bound(resolve_workers(context, book_storage),
                         context.tasks, context.config);
}

}  // namespace melody::auction
